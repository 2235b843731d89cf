package parallel

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestWriteMinBoundaries exercises the extremes: the CAS loop must not
// mis-handle the integer limits or negative values.
func TestWriteMinBoundaries(t *testing.T) {
	var x int32 = math.MinInt32
	if WriteMin32(&x, math.MinInt32) {
		t.Error("WriteMin32 at MinInt32 reported a write for an equal value")
	}
	x = math.MaxInt32
	if !WriteMin32(&x, math.MinInt32) || x != math.MinInt32 {
		t.Errorf("WriteMin32(MaxInt32 -> MinInt32): x = %d", x)
	}
}

// TestAtomicStressAcrossProcs hammers WriteMin32 from many goroutines
// at GOMAXPROCS=1 (cooperative interleavings only) and at the machine's
// full processor count; run under -race this doubles as the data-race
// certificate for the CAS loop. The final value is
// schedule-independent: the min of all written values.
func TestAtomicStressAcrossProcs(t *testing.T) {
	for _, procs := range []int{1, runtime.NumCPU()} {
		procs := procs
		t.Run(map[bool]string{true: "procs=1", false: "procs=NumCPU"}[procs == 1], func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)

			const workers = 8
			const iters = 2000
			var mn int32 = math.MaxInt32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						v := int32(w*iters + i)
						WriteMin32(&mn, v)
					}
				}(w)
			}
			wg.Wait()

			if mn != 0 {
				t.Errorf("min = %d, want 0", mn)
			}
		})
	}
}
