package service

import (
	"testing"

	"repro/internal/graph"
)

// TestGeneratedGraphIDsPinned pins the content id of generated and
// built graphs. The registry, the blob store and job dedup all key on
// these ids, so a builder or generator rewrite must keep every byte of
// the CSR it produces. The complete graphs built as rMat draw more
// duplicates than the first batch covers, so they exercise the top-up
// batches.
func TestGeneratedGraphIDsPinned(t *testing.T) {
	messy := []graph.Edge{
		{U: 5, V: 2}, {U: 2, V: 5}, {U: 3, V: 3}, {U: 0, V: 9}, {U: 9, V: 0},
		{U: 7, V: 1}, {U: 1, V: 7}, {U: 1, V: 7}, {U: 4, V: 4}, {U: 8, V: 6},
		{U: 6, V: 8}, {U: 2, V: 0}, {U: 9, V: 3}, {U: 0, V: 1}, {U: 11, V: 10},
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"rmat 2^15 seed 1", graph.RMat(15, 5<<15, 1), "ga62d2dfaa2c2935b844065cc0cca8880"},
		{"rmat 2^15 seed 2", graph.RMat(15, 5<<15, 2), "gfded402a5ea88c82e81b2c1474096d92"},
		{"rmat 2^10 m 5000 seed 3", graph.RMat(10, 5000, 3), "g75450026d959cda003e00c1858937acd"},
		{"rmat K16", graph.RMat(4, 120, 1), "gd859c2ec4b79d958ba249969a3e844c7"},
		{"rmat K8", graph.RMat(3, 28, 1), "gf090cdfb8f1f8b8b516b355cc1f9ff6d"},
		{"random 2^15", graph.Random(1<<15, 5<<15, 1), "g3e6e1f7f3ad444b31324d2ff56271b40"},
		{"grid 37x41", graph.Grid2D(37, 41), "g8f7ed7225b593a9834a8784b7a4a5b30"},
		{"edges with duplicates", graph.MustFromEdges(12, messy), "g4a42f6ef21608960d6d7cb7fd9b282b9"},
	}
	for _, c := range cases {
		if got := GraphID(c.g); got != c.want {
			t.Errorf("%s: GraphID = %s, want %s", c.name, got, c.want)
		}
	}
}
