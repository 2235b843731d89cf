package unionfind

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDSUBasic(t *testing.T) {
	d := NewDSU(5)
	if d.Components() != 5 {
		t.Errorf("initial components = %d", d.Components())
	}
	if !d.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if d.Union(1, 0) {
		t.Error("repeat union reported a merge")
	}
	if !d.Connected(0, 1) || d.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if d.Components() != 2 {
		t.Errorf("components = %d, want 2", d.Components())
	}
	if !d.Connected(1, 2) {
		t.Error("transitive connectivity failed")
	}
}

func TestDSUSelfUnion(t *testing.T) {
	d := NewDSU(3)
	if d.Union(1, 1) {
		t.Error("self union reported a merge")
	}
}

func TestDSULongChain(t *testing.T) {
	const n = 10000
	d := NewDSU(n)
	for i := 1; i < n; i++ {
		d.Union(int32(i-1), int32(i))
	}
	if d.Components() != 1 {
		t.Errorf("chain components = %d", d.Components())
	}
	if !d.Connected(0, n-1) {
		t.Error("chain endpoints not connected")
	}
}

func TestConcurrentMatchesSequentialQuick(t *testing.T) {
	f := func(rawN uint8, ops []uint16) bool {
		n := int(rawN%50) + 2
		d := NewDSU(n)
		c := NewConcurrent(n)
		for _, op := range ops {
			x := int32(int(op) % n)
			y := int32(int(op>>8) % n)
			rx, ry := c.Find(x), c.Find(y)
			if rx != ry {
				// Deterministic link direction as used by spanning.
				if rx < ry {
					c.Link(ry, rx)
				} else {
					c.Link(rx, ry)
				}
			}
			d.Union(x, y)
		}
		for x := int32(0); x < int32(n); x++ {
			for y := x + 1; y < int32(n); y++ {
				if d.Connected(x, y) != c.SameSet(x, y) {
					return false
				}
			}
		}
		return d.Components() == c.Components()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentParallelFinds(t *testing.T) {
	// Build a long chain, then hammer Find from many goroutines; all
	// must agree on the root and the structure must stay acyclic.
	const n = 5000
	c := NewConcurrent(n)
	for i := n - 1; i > 0; i-- {
		c.Link(int32(i), int32(i-1))
	}
	var wg sync.WaitGroup
	errs := make(chan int32, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < n; i += 8 {
				if r := c.Find(int32(i)); r != 0 {
					errs <- r
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for r := range errs {
		t.Fatalf("concurrent Find returned %d, want 0", r)
	}
	if c.Components() != 1 {
		t.Errorf("components = %d", c.Components())
	}
}

func BenchmarkDSUUnionFind(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		d := NewDSU(n)
		for j := 1; j < n; j++ {
			d.Union(int32(j), int32(j/2))
		}
	}
}

// Connected reports whether x and y are in the same set.
func (d *DSU) Connected(x, y int32) bool {
	return d.Find(x) == d.Find(y)
}

// SameSet reports whether x and y currently share a representative.
// Under concurrent mutation this is a snapshot answer.
func (c *Concurrent) SameSet(x, y int32) bool {
	return c.Find(x) == c.Find(y)
}
