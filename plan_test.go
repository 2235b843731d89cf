package greedy_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	greedy "repro"
)

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []greedy.Algorithm{
		greedy.AlgoPrefix, greedy.AlgoSequential, greedy.AlgoRootSet,
		greedy.AlgoParallel, greedy.AlgoLuby,
	} {
		got, err := greedy.ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %q -> %v", a, a.String(), got)
		}
	}
	if _, err := greedy.ParseAlgorithm("frobnicate"); err == nil {
		t.Fatal("bad algorithm name accepted")
	}
	if a, err := greedy.ParseAlgorithm(""); err != nil || a != greedy.AlgoPrefix {
		t.Fatalf("empty name: got %v, %v; want default prefix", a, err)
	}
}

func TestResolvePlanDefaultsAndRoundTrip(t *testing.T) {
	def := greedy.ResolvePlan()
	if def.Algorithm != greedy.AlgoPrefix || def.Seed != 1 || def.ExplicitOrder {
		t.Fatalf("bad default plan: %+v", def)
	}
	p := greedy.ResolvePlan(
		greedy.WithAlgorithm(greedy.AlgoRootSet),
		greedy.WithSeed(99),
		greedy.WithPrefixFrac(0.01),
		greedy.WithGrain(512),
		greedy.WithPointer(),
	)
	want := greedy.Plan{Algorithm: greedy.AlgoRootSet, Seed: 99, PrefixFrac: 0.01, Grain: 512, Pointered: true}
	if p != want {
		t.Fatalf("resolved plan %+v, want %+v", p, want)
	}
	if back := greedy.ResolvePlan(p.Options()...); back != want {
		t.Fatalf("plan options round trip %+v, want %+v", back, want)
	}
	ord := greedy.NewRandomOrder(10, 1)
	if !greedy.ResolvePlan(greedy.WithOrder(ord)).ExplicitOrder {
		t.Fatal("explicit order not flagged")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plans := []greedy.Plan{
		{},
		greedy.ResolvePlan(),
		{Algorithm: greedy.AlgoLuby, Seed: 42},
		{Algorithm: greedy.AlgoRootSet, Seed: 7, PrefixFrac: 0.005, Grain: 128, Pointered: true},
		{Algorithm: greedy.AlgoSequential, PrefixSize: 1024, ExplicitOrder: true},
		{Algorithm: greedy.AlgoPrefix, Seed: 3, AdaptivePrefix: true},
		{Algorithm: greedy.AlgoPrefix, Seed: 3, AdaptivePrefix: true, PrefixFrac: 0.01},
	}
	for _, p := range plans {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		var back greedy.Plan
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%+v: unmarshal %s: %v", p, raw, err)
		}
		if back != p {
			t.Fatalf("round trip %+v -> %s -> %+v", p, raw, back)
		}
	}
}

func TestPlanJSONCanonicalNames(t *testing.T) {
	raw, err := json.Marshal(greedy.Plan{Algorithm: greedy.AlgoRootSet, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := `"algorithm":"rootset"`
	if !json.Valid(raw) || string(raw) == "" || !strings.Contains(string(raw), want) {
		t.Fatalf("marshaled plan %s does not carry the canonical name %s", raw, want)
	}

	var p greedy.Plan
	if err := json.Unmarshal([]byte(`{"algorithm":"luby","seed":9}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != greedy.AlgoLuby || p.Seed != 9 {
		t.Fatalf("decoded %+v", p)
	}
	// Absent algorithm selects the default.
	if err := json.Unmarshal([]byte(`{"seed":1}`), &p); err != nil || p.Algorithm != greedy.AlgoPrefix {
		t.Fatalf("absent algorithm: %+v, %v", p, err)
	}
	// Unknown algorithm names and typoed fields fail loudly.
	if err := json.Unmarshal([]byte(`{"algorithm":"frobnicate"}`), &p); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
	if err := json.Unmarshal([]byte(`{"prefix":0.5}`), &p); err == nil {
		t.Fatal("unknown plan field accepted")
	}
}

// TestPlanIsSoundDedupKey is the service-layer contract: equal plans on
// the same graph give bit-identical results even across algorithms'
// thread-count variation (exercised elsewhere), while different seeds
// give different results with overwhelming probability.
func TestPlanIsSoundDedupKey(t *testing.T) {
	g := greedy.RandomGraph(2000, 10000, 5)
	p := greedy.ResolvePlan(greedy.WithSeed(7))
	ctx := context.Background()
	r1 := must(greedy.NewSolver().MIS(ctx, g, p.Options()...))
	r2 := must(greedy.NewSolver().MIS(ctx, g, p.Options()...))
	if !r1.Equal(r2) {
		t.Fatal("same plan, different results")
	}
	r3 := must(greedy.NewSolver().MIS(ctx, g, greedy.ResolvePlan(greedy.WithSeed(8)).Options()...))
	if r1.Equal(r3) {
		t.Fatal("different seeds produced identical MIS (suspicious)")
	}
}
