// Example service boots an in-process greedyd, ingests a graph two
// ways (server-side generation and a binary upload of the same graph),
// submits duplicate MIS jobs to show idempotency-key deduplication,
// cancels a long-running job mid-run via DELETE /v1/jobs/{id}, and
// prints the metrics snapshot the daemon exposes at /v1/metrics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	greedy "repro"
	"repro/internal/graph"
	"repro/internal/service"
)

func main() {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := &service.Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Ingest path 1: ask the daemon to generate the paper's random
	// graph family server-side.
	gen, err := client.Generate(ctx, service.GenSpec{Generator: "random", N: 50_000, M: 250_000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated: %s n=%d m=%d (%d bytes resident)\n", gen.ID, gen.N, gen.M, gen.Bytes)

	// Ingest path 2: upload the same graph serialized in the binary
	// format. Content addressing dedups it onto the same id.
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, greedy.RandomGraph(50_000, 250_000, 42)); err != nil {
		log.Fatal(err)
	}
	up, err := client.Upload(ctx, &buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded:  %s deduped=%v\n", up.ID, up.Deduped)

	// Submit the same deterministic job twice: one execution, two
	// byte-identical results.
	req := service.JobRequest{GraphID: gen.ID, Problem: "mis", Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 7}}
	first, err := client.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	second, err := client.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs: %s and %s deduped=%v\n", first.ID, second.ID, second.Deduped)

	if _, err := client.Wait(ctx, first.ID, time.Millisecond); err != nil {
		log.Fatal(err)
	}
	raw1, _, err := client.Result(ctx, first.ID)
	if err != nil {
		log.Fatal(err)
	}
	raw2, _, err := client.Result(ctx, second.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("results byte-identical: %v (%d bytes)\n", bytes.Equal(raw1, raw2), len(raw1))

	// Cancellation: on a larger graph, a tiny prefix makes the job take
	// ~n/2 rounds; the DELETE below aborts the round loop within one
	// round and the job ends in state "cancelled", its worker
	// immediately free again.
	bigGraph, err := client.Generate(ctx, service.GenSpec{Generator: "random", N: 1_000_000, M: 2_000_000, Seed: 43})
	if err != nil {
		log.Fatal(err)
	}
	long, err := client.Submit(ctx, service.JobRequest{
		GraphID: bigGraph.ID, Problem: "mis",
		Plan: greedy.Plan{Algorithm: greedy.AlgoPrefix, Seed: 1, PrefixSize: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	running := false
	for {
		st, err := client.Status(ctx, long.ID)
		if err != nil {
			log.Fatal(err)
		}
		if st.State == service.StateRunning && st.Progress != nil && st.Progress.Rounds > 0 {
			fmt.Printf("long job %s running: rounds=%d attempted=%d\n",
				long.ID, st.Progress.Rounds, st.Progress.Attempted)
			running = true
			break
		}
		if st.State.Terminal() {
			fmt.Printf("long job %s finished before cancellation (state %s)\n", long.ID, st.State)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if running {
		if _, err := client.Cancel(ctx, long.ID); err != nil {
			log.Fatal(err)
		}
		final, err := client.Wait(ctx, long.ID, time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("long job after DELETE: state=%s run_ms=%.1f\n", final.State, final.RunMS)
	}

	snap, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: submitted=%d dedup_hits=%d executed=%d cancelled=%d graphs=%d resident=%dB\n",
		snap.Jobs.Submitted, snap.Jobs.DedupHits, snap.Jobs.Executed, snap.Jobs.Cancelled,
		snap.Registry.Graphs, snap.Registry.BytesResident)
}
