package main

import (
	"context"
	"time"

	"repro/internal/service"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	// batchShare sizes a repair batch as a share of the edges: m/640 is
	// 4096 updates at 2^19 vertices, where one Apply takes milliseconds.
	batchShare = 640
)

// runSolve measures solve-random or solve-rmat: passes over the five
// problems on one reused Solver, each pass followed by repair batches on
// the MIS and MM sessions.
func runSolve(cfg config, res *results, tr *tracer) error {
	ctx := context.Background()
	n := 1 << cfg.logN
	spec := service.GenSpec{Generator: "random", N: n, M: degree * n, Seed: mix(cfg.seed, streamGraph)}
	if cfg.workload == "solve-rmat" {
		spec.Generator = "rmat"
	}
	var lib *library
	var setupS, buildS []float64
	for i := 0; i < setupReps; i++ {
		lib = nil // let the previous set-up's inputs be collected
		settle()
		t := time.Now()
		var err error
		if lib, err = newLibrary(ctx, spec, cfg.seed, spec.M/batchShare); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		buildS = append(buildS, lib.buildS)
	}
	settle()
	mark := readRuntime()
	// A traced run alternates profiled and unprofiled passes; it needs
	// one of each.
	minPasses := 1
	if cfg.traced {
		minPasses = 2
	}
	st := lib.loop(ctx, res, tr, time.Now().Add(cfg.window), minPasses, cfg.traced)
	after := readRuntime()
	res.op(lib.checkSessions(ctx))

	if !cfg.traced {
		res.add("setup_s", "s", median(setupS), len(setupS))
		res.add("solve_ms", "ms", median(st.passMS), len(st.passMS))
		res.add("repair_ms", "ms", median(st.repairMS), len(st.repairMS))
		res.add("ops_per_s", "1/s", float64(opsPerCycle)/median(st.cycleMS)*1000, len(st.cycleMS))
		res.add("heap_peak_mb", "MiB", st.heap.mib(), st.ops)
		return nil
	}
	res.add("graph.build_s", "s", median(buildS), len(buildS))
	addRuntime(res, mark, after, st.ops)
	res.add("trace.overhead_frac", "1", median(st.tracedPassMS)/median(st.passMS)-1, len(st.tracedPassMS))
	lib.addLibraryLayers(ctx, res, tr, st)
	if err := persistLayers(cfg.dir, lib.g, res, tr); err != nil {
		return err
	}
	return serviceProbe(ctx, cfg, spec, lib.g, res, tr)
}
