package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	greedy "repro"
	"repro/internal/service"
)

// summaryRE matches the summary line up to its time.
var summaryRE = regexp.MustCompile(`(?m)^(\w+): size=(\d+) checksum=([0-9a-f]{16}) time=`)

// runOK runs the command, fails the test on a nonzero exit, and returns
// its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
	}
	return out.String()
}

// summary returns the size and checksum of run's summary line.
func summary(t *testing.T, out string) (size, checksum string) {
	t.Helper()
	s := summaryRE.FindStringSubmatch(out)
	if s == nil {
		t.Fatalf("no summary line in output:\n%s", out)
	}
	return s[2], s[3]
}

// TestEveryProblemVerifies runs every problem with every algorithm its
// table row accepts on small random and rMat graphs, at GOMAXPROCS 1
// and 2: each run must pass -verify and print the same size and
// checksum at both.
func TestEveryProblemVerifies(t *testing.T) {
	graphs := [][]string{
		{"-gen", "random", "-n", "600", "-m", "2400", "-seed", "3", "-pointered"},
		{"-gen", "rmat", "-n", "500", "-m", "2500", "-seed", "4", "-prefix", "0.02"},
	}
	algos := []greedy.Algorithm{greedy.AlgoPrefix, greedy.AlgoSequential, greedy.AlgoRootSet, greedy.AlgoParallel, greedy.AlgoLuby}
	for _, p := range greedy.Problems() {
		for _, a := range algos {
			if p.Check(greedy.Plan{Algorithm: a}) != nil {
				continue
			}
			for _, gen := range graphs {
				args := append([]string{"-problem", string(p), "-algorithm", a.String(), "-verify"}, gen...)
				var got [2]string
				for i, procs := range []int{1, 2} {
					prev := runtime.GOMAXPROCS(procs)
					out := runOK(t, args...)
					runtime.GOMAXPROCS(prev)
					if !strings.Contains(out, "verify: ok") {
						t.Errorf("%v at GOMAXPROCS=%d: no verify: ok in\n%s", args, procs, out)
					}
					size, sum := summary(t, out)
					got[i] = size + " " + sum
				}
				if got[0] != got[1] {
					t.Errorf("%v: GOMAXPROCS 1 gives %s, 2 gives %s", args, got[0], got[1])
				}
			}
		}
	}
}

// TestUsageErrorsExit2 checks that each kind of bad request exits 2
// before any solve.
func TestUsageErrorsExit2(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":              {"-nosuch"},
		"unknown problem":           {"-problem", "clique"},
		"unknown algorithm":         {"-algorithm", "greedy"},
		"algorithm the row rejects": {"-problem", "coloring", "-algorithm", "rootset"},
		"luby for matching":         {"-problem", "mm", "-algorithm", "luby"},
		"unknown generator":         {"-gen", "grid", "-n", "10", "-m", "10"},
		"m past the possible edges": {"-gen", "rmat", "-n", "5", "-m", "29"},
		"missing input file":        {"-in", t.TempDir() + "/none.adj"},
	}
	for name, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", name, code, errb.String())
		}
	}
	// rmat with n = 5 draws on 8 vertices, which hold 28 edges.
	runOK(t, "-gen", "rmat", "-n", "5", "-m", "28", "-q")
}

// TestChecksumMatchesGreedyd checks that the CLI prints the size and
// checksum an in-process greedyd serves for the same generated graph
// and plan: GenSpec{random, n, m, seed} solved with {algorithm, seed+1}.
func TestChecksumMatchesGreedyd(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const n, m, seed = 1500, 6000, 5
	info, _, err := svc.Generate(service.GenSpec{Generator: "random", N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range greedy.Problems() {
		for _, a := range []greedy.Algorithm{greedy.AlgoPrefix, greedy.AlgoSequential} {
			size, sum := summary(t, runOK(t, "-problem", string(p), "-algorithm", a.String(), "-q",
				"-gen", "random", "-n", fmt.Sprint(n), "-m", fmt.Sprint(m), "-seed", fmt.Sprint(seed)))
			st, _, err := svc.Engine().Submit(service.JobSpec{GraphID: info.ID, Problem: p,
				Plan: greedy.Plan{Algorithm: a, Seed: seed + 1}})
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(30 * time.Second); st.State != service.StateDone; time.Sleep(time.Millisecond) {
				if st, err = svc.Engine().Status(st.ID); err != nil || st.State == service.StateFailed || time.Now().After(deadline) {
					t.Fatalf("%s/%s: job %+v, err %v", p, a, st, err)
				}
			}
			raw, _, err := svc.Engine().Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			var payload service.ResultPayload
			if err := json.Unmarshal(raw, &payload); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(payload.Size) != size || payload.Checksum != sum {
				t.Errorf("%s/%s: CLI size=%s checksum=%s, greedyd size=%d checksum=%s",
					p, a, size, sum, payload.Size, payload.Checksum)
			}
		}
	}
}
