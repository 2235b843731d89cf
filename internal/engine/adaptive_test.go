package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/parallel"
)

// TestAdaptiveControllerPolicy unit-tests the doubling/halving/brake
// decisions directly.
func TestAdaptiveControllerPolicy(t *testing.T) {
	c := engine.NewAdaptiveController(64, 1024, 4096)
	// High acceptance doubles.
	c.Observe(64, 64, 128)
	if c.Window() != 128 {
		t.Fatalf("after full acceptance: window %d, want 128", c.Window())
	}
	// Low acceptance halves.
	c.Observe(128, 16, 256)
	if c.Window() != 64 {
		t.Fatalf("after 12.5%% acceptance: window %d, want 64", c.Window())
	}
	// Mid-band holds.
	c.Observe(64, 48, 128)
	if c.Window() != 64 {
		t.Fatalf("after 75%% acceptance: window %d, want hold at 64", c.Window())
	}
	// Cost explosion halves even at perfect acceptance: the EWMA is
	// ~2/iterate by now, so 100 inspections per resolved trips the brake.
	c.Observe(64, 64, 6400)
	if c.Window() != 32 {
		t.Fatalf("after cost explosion: window %d, want 32", c.Window())
	}

	// Growth stops at the cap and never exceeds it.
	c = engine.NewAdaptiveController(512, 1024, 4096)
	for i := 0; i < 10; i++ {
		c.Observe(c.Window(), c.Window(), int64(2*c.Window()))
	}
	if c.Window() != 1024 {
		t.Fatalf("growth cap: window %d, want 1024", c.Window())
	}
	// Shrinking below the cap and the floor of 1.
	c = engine.NewAdaptiveController(2, 8, 16)
	for i := 0; i < 5; i++ {
		c.Observe(16, 0, 32)
	}
	if c.Window() != 1 {
		t.Fatalf("shrink floor: window %d, want 1", c.Window())
	}
	// An initial window above the cap is kept (explicit seed), and
	// growth from there is refused.
	c = engine.NewAdaptiveController(2048, 1024, 4096)
	if c.Window() != 2048 {
		t.Fatalf("explicit seed above cap: window %d, want 2048", c.Window())
	}
	c.Observe(2048, 2048, 4096)
	if c.Window() != 2048 {
		t.Fatalf("growth above cap: window %d, want hold at 2048", c.Window())
	}
}

// TestAdaptiveGrowCapTinyGraph pins the cap arithmetic for inputs
// smaller than the parallel-slack product GOMAXPROCS·256: there the
// input size, not the slack formula, must bound the cap — and the
// AdaptiveStartWindow floor must never push the cap past n.
func TestAdaptiveGrowCapTinyGraph(t *testing.T) {
	slack := engine.AdaptiveSlackChunks * parallel.Procs() * parallel.DefaultGrain
	cases := []struct{ n, want int }{
		{0, 1},                 // degenerate: the [1, ...] clamp
		{1, 1},                 // single vertex
		{100, 100},             // below AdaptiveStartWindow: n wins over the 256 floor
		{255, 255},             // one under the start window
		{256, 256},             // exactly the start window
		{slack - 1, slack - 1}, // one under the slack product: still n
		{slack, slack},         // exactly the slack product
		{slack + 100, slack},   // above it: the slack cap takes over
		{100 * slack, slack},   // far above: unchanged
	}
	for _, tc := range cases {
		if got := engine.AdaptiveGrowCap(tc.n); got != tc.want {
			t.Errorf("AdaptiveGrowCap(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestAdaptiveControllerTinyGraph drives a controller sized for a tiny
// input (n < GOMAXPROCS·256) through perfect-acceptance rounds: the
// window must climb to exactly n and stay there — the grow cap, the
// max bound and the doubling sequence all collapse onto the input
// size.
func TestAdaptiveControllerTinyGraph(t *testing.T) {
	const n = 100 // < 256 <= GOMAXPROCS·256
	c := engine.NewAdaptiveController(engine.Options{}.AdaptiveInitial(n), engine.AdaptiveGrowCap(n), n)
	if c.Window() != n {
		// AdaptiveInitial clamps the 256 default start to n.
		t.Fatalf("initial window %d, want n=%d", c.Window(), n)
	}
	for i := 0; i < 20; i++ {
		w := c.Window()
		c.Observe(w, w, int64(2*w))
		if c.Window() > n {
			t.Fatalf("round %d: window %d exceeded n=%d", i, c.Window(), n)
		}
	}
	if c.Window() != n {
		t.Fatalf("steady-state window %d, want n=%d", c.Window(), n)
	}
	// A mid-size tiny input (AdaptiveStartWindow < n < slack product):
	// doubling stops exactly at n even though the slack cap is larger.
	const n2 = 300
	c2 := engine.NewAdaptiveController(engine.Options{}.AdaptiveInitial(n2), engine.AdaptiveGrowCap(n2), n2)
	if c2.Window() != engine.AdaptiveStartWindow {
		t.Fatalf("initial window %d, want %d", c2.Window(), engine.AdaptiveStartWindow)
	}
	for i := 0; i < 10; i++ {
		w := c2.Window()
		c2.Observe(w, w, int64(2*w))
	}
	if c2.Window() != n2 {
		t.Fatalf("steady-state window %d, want n=%d", c2.Window(), n2)
	}
}
