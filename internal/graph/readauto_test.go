package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestReadAutoAllFormats(t *testing.T) {
	g := Random(80, 240, 5)
	writers := map[string]func(*Graph, *bytes.Buffer) error{
		"adjacency": func(g *Graph, buf *bytes.Buffer) error { return WriteAdjacency(buf, g) },
		"edges":     func(g *Graph, buf *bytes.Buffer) error { return WriteEdgeArray(buf, g) },
		"binary":    func(g *Graph, buf *bytes.Buffer) error { return WriteBinary(buf, g) },
	}
	for name, w := range writers {
		var buf bytes.Buffer
		if err := w(g, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s: ReadAuto: %v", name, err)
		}
		graphsEqual(t, g, got)
	}
}

func TestReadAutoRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"whitespace":    "   \n",
		"random text":   "hello world\n1 2\n",
		"header prefix": "AdjacencyGraphX\n1\n0\n0\n",
		"edge prefix":   "EdgeArrayLike\n0 1\n",
		"short binary":  "\x01\x02\x03",
		"wrong magic":   "\x00\x00\x00\x00\x00\x00\x00\x00 trailing",
	}
	for name, input := range cases {
		if _, err := ReadAuto(strings.NewReader(input)); err == nil {
			t.Errorf("%s: garbage accepted", name)
		} else if !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("%s: error %v does not wrap ErrUnknownFormat", name, err)
		}
	}
}

func TestReadAutoHeaderNeedsWhitespaceBoundary(t *testing.T) {
	// A valid header followed immediately by a newline (no padding to
	// the sniff length) must still be detected — the file may be
	// shorter than the peek window.
	tiny := "EdgeArray\n0 1\n"
	g, err := ReadAuto(strings.NewReader(tiny))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("tiny edge array misparsed: %v", g)
	}
}
