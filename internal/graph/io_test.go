package graph

import (
	"bytes"
	"strings"
	"testing"
)

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		Empty(0),
		Empty(3),
		Complete(5),
		Random(100, 400, 3),
		Star(7),
	} {
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAdjacency(&buf)
		if err != nil {
			t.Fatalf("ReadAdjacency: %v", err)
		}
		graphsEqual(t, g, got)
	}
}

func TestAdjacencyFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, Path(3)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header, n, m(arcs), 3 offsets, 4 arcs.
	if lines[0] != "AdjacencyGraph" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "3" || lines[2] != "4" {
		t.Errorf("n,m lines = %q,%q, want 3,4", lines[1], lines[2])
	}
	if len(lines) != 3+3+4 {
		t.Errorf("total lines = %d, want 10", len(lines))
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":        "NotAGraph\n1\n0\n0\n",
		"negative n":        "AdjacencyGraph\n-1\n0\n",
		"truncated offsets": "AdjacencyGraph\n3\n4\n0\n",
		"offset range":      "AdjacencyGraph\n2\n2\n0\n5\n0\n0\n",
		"arc out of range":  "AdjacencyGraph\n2\n2\n0\n1\n1\n5\n",
		"self loop":         "AdjacencyGraph\n2\n2\n0\n1\n0\n1\n",
		"not a number":      "AdjacencyGraph\nx\n0\n",
		"empty":             "",
	}
	for name, input := range cases {
		if _, err := ReadAdjacency(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestReadAdjacencyAsymmetricRejected(t *testing.T) {
	// Arc 0->1 without 1->0.
	input := "AdjacencyGraph\n2\n1\n0\n1\n1\n"
	if _, err := ReadAdjacency(strings.NewReader(input)); err == nil {
		t.Error("asymmetric graph accepted")
	}
}

func TestEdgeArrayRoundTrip(t *testing.T) {
	g := Random(60, 150, 17)
	var buf bytes.Buffer
	if err := WriteEdgeArray(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// ReadEdgeArray infers n from the max endpoint, which may be smaller
	// than the original if trailing vertices are isolated; compare edges.
	ea, eb := g.Edges(), got.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge count %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestReadEdgeArrayErrors(t *testing.T) {
	if _, err := ReadEdgeArray(strings.NewReader("WrongHeader\n0 1\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadEdgeArray(strings.NewReader("EdgeArray\n0\n")); err == nil {
		t.Error("dangling endpoint accepted")
	}
	if _, err := ReadEdgeArray(strings.NewReader("EdgeArray\n-1 2\n")); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		Empty(0),
		Empty(10),
		Complete(6),
		Random(500, 2500, 77),
		RMat(10, 2000, 5),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, g, got)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("short")); err == nil {
		t.Error("truncated binary accepted")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Complete(3)); err != nil {
		t.Fatal(err)
	}
	corrupted := buf.Bytes()
	corrupted[0] ^= 0xff // break the magic
	if _, err := ReadBinary(bytes.NewReader(corrupted)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinaryTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Random(100, 300, 1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated payload accepted")
	}
}
