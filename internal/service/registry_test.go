package service

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/persist"
)

func testGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	return graph.Random(n, 4*n, seed)
}

func TestRegistryContentAddressing(t *testing.T) {
	r := NewRegistry(0, nil)
	g := testGraph(t, 1000, 1)
	info1, dup1, err := r.Add(g, "a")
	if err != nil {
		t.Fatal(err)
	}
	if dup1 {
		t.Fatal("first add reported as duplicate")
	}
	// A structurally identical graph built separately dedups.
	info2, dup2, err := r.Add(testGraph(t, 1000, 1), "b")
	if err != nil {
		t.Fatal(err)
	}
	if !dup2 || info2.ID != info1.ID {
		t.Fatalf("identical graph not deduplicated: %v vs %v (dup=%v)", info2.ID, info1.ID, dup2)
	}
	// A different graph gets a different id.
	info3, _, err := r.Add(testGraph(t, 1000, 2), "c")
	if err != nil {
		t.Fatal(err)
	}
	if info3.ID == info1.ID {
		t.Fatal("distinct graphs share an id")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	g := testGraph(t, 1000, 1)
	per := graphBytes(g)
	r := NewRegistry(3*per, nil) // room for exactly three graphs

	var ids []string
	for s := uint64(1); s <= 4; s++ {
		info, _, err := r.Add(testGraph(t, 1000, s), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		// Touch the first graph so seed 2 is the LRU when seed 4 arrives.
		if s == 3 {
			h, err := r.Acquire(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	if _, ok := r.Get(ids[1]); ok {
		t.Fatal("LRU graph (seed 2) survived eviction")
	}
	if _, ok := r.Get(ids[3]); !ok {
		t.Fatal("newest graph missing")
	}
}

func TestRegistryPinnedNeverEvicted(t *testing.T) {
	g := testGraph(t, 1000, 1)
	per := graphBytes(g)
	r := NewRegistry(2*per, nil)

	info, _, err := r.Add(g, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the registry far past its budget: the pinned graph must
	// survive every eviction pass.
	for s := uint64(10); s < 20; s++ {
		if _, _, err := r.Add(testGraph(t, 1000, s), ""); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(info.ID); !ok {
			t.Fatalf("pinned graph evicted after add %d", s)
		}
	}
	h.Release()
	// Unpinned now: one more add pushes it out (it is the LRU).
	if _, _, err := r.Add(testGraph(t, 1000, 99), ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(info.ID); ok {
		t.Fatal("released LRU graph not evicted")
	}
}

func TestRegistryTooLarge(t *testing.T) {
	r := NewRegistry(100, nil)
	_, _, err := r.Add(testGraph(t, 1000, 1), "")
	if err == nil {
		t.Fatal("oversized graph accepted")
	}
}

// TestRegistryEvictionRefcountRace hammers Acquire/Release against
// budget-pressured Adds; run with -race. The invariant: a graph is
// never evicted while a handle on it is outstanding, so every pinned
// access must see the graph resident.
func TestRegistryEvictionRefcountRace(t *testing.T) {
	g := testGraph(t, 500, 1)
	per := graphBytes(g)
	r := NewRegistry(2*per, nil)
	info, _, err := r.Add(g, "hot")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, 4)

	// Pinners: acquire the hot graph, use it, release.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h, err := r.Acquire(info.ID)
				if err != nil {
					// The hot graph may be evicted between a release
					// and the next acquire; re-add it and continue.
					if _, _, aerr := r.Add(testGraph(t, 500, 1), "hot"); aerr != nil {
						errs <- aerr
						return
					}
					continue
				}
				if _, ok := r.Get(info.ID); !ok {
					errs <- fmt.Errorf("worker %d: pinned graph not resident at iter %d", w, i)
					h.Release()
					return
				}
				if h.Graph().NumVertices() != 500 {
					errs <- fmt.Errorf("worker %d: pinned graph corrupted", w)
					h.Release()
					return
				}
				h.Release()
			}
		}(w)
	}
	// Evictor: keep adding fresh graphs so the budget stays saturated.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, _, err := r.Add(testGraph(t, 500, uint64(100+i%7)), ""); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHandleEdgeListCachedAndAccounted(t *testing.T) {
	r := NewRegistry(0, nil)
	info, _, err := r.Add(testGraph(t, 1000, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	before := r.counters().BytesResident
	el1 := h1.EdgeList()
	after := r.counters().BytesResident
	if after <= before {
		t.Fatalf("edge list bytes not accounted: %d -> %d", before, after)
	}
	h2, err := r.Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	el2 := h2.EdgeList()
	if &el1.Edges[0] != &el2.Edges[0] {
		t.Fatal("edge list not cached across handles")
	}
	if r.counters().BytesResident != after {
		t.Fatal("edge list double-accounted")
	}
}

// The vertex-cover system is cached per graph like the edge list: built
// once on first use, its bytes (and the edge list's) added to the
// resident count, shared across handles, and released with the arrays
// when the graph is demoted; a cold load rebuilds it.
func TestHandleHittingSystemCachedAccountedAndDemoted(t *testing.T) {
	store, _, _, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a, b := testGraph(t, 1000, 1), testGraph(t, 1000, 2)
	r := NewRegistry(graphBytes(a)+graphBytes(b), nil)
	r.AttachStore(store, nil)
	infoA, _, err := r.Add(a, "")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Acquire(infoA.ID)
	if err != nil {
		t.Fatal(err)
	}
	before := r.counters().BytesResident
	sys := h1.HittingSystem()
	derived := int64(8*a.NumEdges()) + sys.Bytes()
	if got := r.counters().BytesResident - before; got != derived {
		t.Fatalf("edge list and system added %d resident bytes, want %d", got, derived)
	}
	if sys.NumSets() != a.NumEdges() || sys.NumElements() != a.NumVertices() {
		t.Fatalf("system has %d sets over %d elements, want %d over %d",
			sys.NumSets(), sys.NumElements(), a.NumEdges(), a.NumVertices())
	}
	h2, err := r.Acquire(infoA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h2.HittingSystem() != sys {
		t.Fatal("system not cached across handles")
	}
	if got := r.counters().BytesResident - before; got != derived {
		t.Fatalf("second handle moved resident bytes to +%d, want +%d", got, derived)
	}
	h1.Release()
	h2.Release()

	// Adding b overflows the budget and demotes a with what it derived.
	if _, _, err := r.Add(b, ""); err != nil {
		t.Fatal(err)
	}
	if info, _ := r.Get(infoA.ID); info.Resident {
		t.Fatal("graph a still resident after the budget overflowed")
	}
	if got, want := r.counters().BytesResident, graphBytes(b); got != want {
		t.Fatalf("resident bytes after demotion = %d, want %d (b alone)", got, want)
	}

	h3, err := r.Acquire(infoA.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if h3.HittingSystem() == sys {
		t.Fatal("demotion kept the system")
	}
	if got, want := r.counters().BytesResident, graphBytes(a)+graphBytes(b)+derived; got != want {
		t.Fatalf("resident bytes after the cold load = %d, want %d", got, want)
	}
}

// The lineage log holds what the index retains: rewritten at boot and
// after every maxLineageRecs appends, it never grows past twice the
// retention, and a restart rebuilds the same index from it, also when
// derivations are recorded and looked up from several goroutines.
func TestLineageLogBoundedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*persist.Store, *Registry) {
		store, _, recs, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistry(0, nil)
		r.AttachStore(store, recs)
		return store, r
	}
	const total = 3 * maxLineageRecs
	id := func(i int) string { return fmt.Sprintf("g%d", i) }
	type derivation struct {
		parent  string
		updates []dynamic.Update
		ok      bool
	}
	lineage := func(r *Registry) []derivation {
		out := make([]derivation, total+1)
		for i := range out {
			d := &out[i]
			d.parent, d.updates, d.ok = r.Lineage(id(i))
		}
		return out
	}
	logged := func() int {
		raw, err := os.ReadFile(filepath.Join(dir, "lineage.wal"))
		if err != nil {
			t.Fatal(err)
		}
		recs, valid := persist.DecodeLineage(raw)
		if valid != len(raw) {
			t.Fatalf("lineage log valid to %d of %d bytes", valid, len(raw))
		}
		return len(recs)
	}

	store, r := open()
	stop := make(chan struct{})
	var writers, reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Lineage(id(i % total))
			}
		}
	}()
	const numWriters = 3
	for w := 1; w <= numWriters; w++ {
		writers.Add(1)
		go func(first int) {
			defer writers.Done()
			for i := first; i <= total; i += numWriters {
				r.recordLineage(id(i), id(i-1), []dynamic.Update{{Op: dynamic.OpAdd, U: int32(i % 7), V: 7}})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	before := lineage(r)
	retained := 0
	for i, d := range before {
		if !d.ok {
			continue
		}
		retained++
		if d.parent != id(i-1) || len(d.updates) != 1 || d.updates[0].U != int32(i%7) {
			t.Fatalf("derivation %d = %+v", i, d)
		}
	}
	if retained != maxLineageRecs {
		t.Fatalf("%d derivations retained, want %d", retained, maxLineageRecs)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if n := logged(); n > 2*maxLineageRecs {
		t.Fatalf("lineage log holds %d records after %d derivations, want at most %d", n, total, 2*maxLineageRecs)
	}

	store, r = open()
	defer store.Close()
	if !reflect.DeepEqual(lineage(r), before) {
		t.Fatal("the lineage index differs after a restart")
	}
	if n := logged(); n != maxLineageRecs {
		t.Fatalf("lineage log holds %d records after the boot rewrite, want %d", n, maxLineageRecs)
	}
}
