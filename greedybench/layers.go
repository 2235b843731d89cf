package main

import (
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/persist"
	"repro/internal/service"
)

const (
	acceptReps = 32 // timed journal accepts
	blobReps   = 3  // timed blob writes of the workload graph
)

// persistLayers times the durability layer directly on a temp store at
// the workload's size: journal accepts of a job spec, each fsync'd, and
// blob writes of the workload graph.
func persistLayers(parent string, g *greedy.Graph, res *results, tr *tracer) error {
	dir, err := os.MkdirTemp(parent, "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, _, err := persist.Open(dir)
	if err != nil {
		return err
	}
	spec := service.JobSpec{GraphID: "g", Problem: service.ProblemMIS, Plan: greedy.ResolvePlan(greedy.WithSeed(1))}
	var accept []float64
	for i := 0; i < acceptReps; i++ {
		sp := tr.begin("persist.accept", int64(i), -1)
		t := time.Now()
		err := store.Journal().Accept(fmt.Sprintf("j%d", i), spec)
		accept = append(accept, ms(time.Since(t)))
		tr.end(sp)
		res.op(err)
	}
	var put []float64
	for i := 0; i < blobReps; i++ {
		meta := persist.BlobMeta{
			ID: fmt.Sprintf("g%d", i), N: g.NumVertices(), M: g.NumEdges(),
			Bytes: graphBytes(g.NumVertices(), g.NumEdges()),
		}
		settle()
		sp := tr.begin("persist.blob_put", int64(i), -1)
		t := time.Now()
		err := store.Blobs().Put(meta, g)
		put = append(put, ms(time.Since(t)))
		tr.end(sp)
		res.op(err)
	}
	res.add("persist.accept_ms", "ms", median(accept), len(accept))
	res.add("persist.blob_put_ms", "ms", median(put), len(put))
	return store.Close()
}
