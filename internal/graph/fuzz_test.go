package graph

import (
	"bytes"
	"testing"
)

// FuzzReadAdjacency checks that the text parser never panics and that
// anything it accepts is a valid graph that survives a write/read round
// trip. Run with `go test -fuzz=FuzzReadAdjacency ./internal/graph`;
// the seed corpus also runs under plain `go test`.
func FuzzReadAdjacency(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteAdjacency(&seed, Complete(4)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("AdjacencyGraph\n0\n0\n"))
	f.Add([]byte("AdjacencyGraph\n2\n2\n0\n1\n1\n0\n"))
	f.Add([]byte("AdjacencyGraph\n1\n-1\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAdjacency(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := WriteAdjacency(&out, g); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadAdjacency(&out)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed sizes")
		}
	})
}

// FuzzReadBinary does the same for the binary parser.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, Random(10, 20, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("short"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzFromEdges checks the builder's invariants over arbitrary edge
// soup: any accepted input yields a validated graph whose edge set is a
// subset of the (cleaned) input, byte for byte the sort-based
// reference's.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(3), []byte{0, 0, 1, 1})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, rawN uint8, pairs []byte) {
		n := int(rawN)
		edges := make([]Edge, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, Edge{U: Vertex(pairs[i]), V: Vertex(pairs[i+1])})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			// Must only fail for out-of-range endpoints.
			for _, e := range edges {
				if e.U >= Vertex(n) || e.V >= Vertex(n) || e.U < 0 || e.V < 0 {
					return
				}
			}
			t.Fatalf("FromEdges rejected in-range input: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
		if !sameCSR(g, fromEdgesReference(n, edges)) {
			t.Fatal("built graph differs from the reference")
		}
		for _, e := range g.Edges() {
			found := false
			for _, in := range edges {
				c := in.Canonical()
				if c == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("built graph contains edge %v not in input", e)
			}
		}
	})
}
