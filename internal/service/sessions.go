package service

import (
	"context"
	"sync"

	greedy "repro"
	"repro/internal/dynamic"
	"repro/internal/trace"
)

// sessKey identifies a maintainable solution state. Plan fields beyond
// the seed do not participate: every deterministic schedule yields the
// same maintained set, which is the only state a session holds.
type sessKey struct {
	graphID string
	problem Problem
	seed    uint64
}

// sessionCache holds the engine's dynamic sessions: maintained
// solutions keyed by (graph version, problem, seed), checked out
// exclusively while a worker advances or reads them, in an LRU of at
// most limit entries (0 disables the cache). A session is how a dynamic
// job for a patched graph version repairs instead of recomputes.
type sessionCache struct {
	mu    sync.Mutex
	m     map[sessKey]*dynamic.Maintainer
	lru   []sessKey
	limit int
}

// checkout removes and returns the cached session for key, if any.
// Checkout is exclusive: a Maintainer is not safe for concurrent use,
// so it leaves the cache while a worker advances or reads it.
func (c *sessionCache) checkout(key sessKey) *dynamic.Maintainer {
	c.mu.Lock()
	defer c.mu.Unlock()
	mt, ok := c.m[key]
	if !ok {
		return nil
	}
	delete(c.m, key)
	for i, k := range c.lru {
		if k == key {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	return mt
}

// checkin parks a session under key, evicting the least recently used
// entry past the limit. If a racing worker already parked one for the
// key, the resident session wins (both describe the same deterministic
// state).
func (c *sessionCache) checkin(key sessKey, mt *dynamic.Maintainer) {
	if c.limit == 0 || mt == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	c.m[key] = mt
	c.lru = append(c.lru, key)
	for len(c.lru) > c.limit {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		delete(c.m, victim)
	}
}

// lineageSession walks the version lineage of key.graphID upward
// looking for a cached session at an ancestor. It returns the
// checked-out session, the ancestor's id, and the patch chain (oldest
// first) that advances it to key.graphID. The walk is depth-capped so
// a corrupt lineage index cannot spin a worker.
func (e *Engine) lineageSession(key sessKey) (*dynamic.Maintainer, string, [][]dynamic.Update) {
	var chain [][]dynamic.Update
	id := key.graphID
	for depth := 0; depth < 32; depth++ {
		parent, updates, ok := e.reg.Lineage(id)
		if !ok {
			return nil, "", nil
		}
		chain = append(chain, nil)
		copy(chain[1:], chain)
		chain[0] = updates
		id = parent
		if mt := e.sessions.checkout(sessKey{graphID: id, problem: key.problem, seed: key.seed}); mt != nil {
			return mt, id, chain
		}
	}
	return nil, "", nil
}

// executeDynamic answers a dynamic-plan job from the session cache:
// an exact-version session is a free read; an ancestor session is
// advanced by replaying the recorded patches (change-driven frontier
// repair — the work recorded in payload.Repair stays proportional to
// the flipped damage region); otherwise the job computes from scratch
// and seeds a session for its version so later jobs on patched
// descendants can repair.
func (e *Engine) executeDynamic(ctx context.Context, job *Job, payload ResultPayload) (ResultPayload, error) {
	h := job.handle
	g := h.Graph()
	plan := job.Spec.Plan
	problem := job.Spec.Problem
	payload.Dynamic = true
	key := sessKey{graphID: h.ID(), problem: problem, seed: plan.Seed}

	mt := e.sessions.checkout(key)
	resolution := "hit" // exact-version session checkout: a free read
	if mt == nil {
		prior, from, chain := e.lineageSession(key)
		if prior != nil {
			repair := dynamic.RepairStats{}
			advanced := prior
			for i, batch := range chain {
				st, err := advanced.Apply(ctx, batch)
				repair.Add(st)
				cost := pick(problem, st.MIS, st.MM)
				e.trace.Append(trace.Event{
					Kind:         trace.KindRepair,
					Job:          job.ID,
					Batch:        i + 1,
					Seeds:        cost.Seeds,
					Visited:      cost.Visited,
					Flipped:      cost.Flipped,
					FrontierPeak: cost.FrontierPeak,
					Changed:      cost.Changed,
				})
				if err != nil {
					// The session is inconsistent (cancelled mid-repair)
					// or cannot accept the patch; drop it. Propagate
					// cancellation, otherwise recompute from scratch.
					advanced = nil
					if cerr := ctx.Err(); cerr != nil {
						return payload, cerr
					}
					break
				}
			}
			// The advanced session must describe exactly this version;
			// the edge count is a cheap invariant check against a stale
			// or corrupted lineage chain.
			if advanced != nil && advanced.NumEdges() == g.NumEdges() {
				mt = advanced
				resolution = "replay"
				payload.Repaired = true
				payload.RepairedFrom = from
				payload.RepairBatches = len(chain)
				payload.Repair = &repair
				cost := pick(problem, repair.MIS, repair.MM)
				payload.Stats = greedy.Stats{Rounds: cost.Rounds, Attempts: cost.Attempts, EdgeInspections: cost.Inspections}
			}
		}
	}
	if mt == nil {
		resolution = "scratch"
		fresh, err := dynamic.NewMaintainer(ctx, g, dynamic.Config{
			MIS:   problem == ProblemMIS,
			MM:    problem == ProblemMM,
			Seed:  plan.Seed,
			Grain: plan.Grain,
		})
		if err != nil {
			return payload, err
		}
		mt = fresh
		misStats, mmStats := mt.InitStats()
		payload.Stats = pick(problem, misStats, mmStats)
	}
	// (A checkout hit at the exact version reads the maintained state
	// with zero Stats: no work was performed.)
	e.trace.Append(trace.Event{Kind: trace.KindResolve, Job: job.ID, Name: resolution,
		Batch: payload.RepairBatches})
	if problem == ProblemMIS {
		res := mt.MISResult()
		payload.setAnswer(greedy.Answer{Size: res.Size(), In: res.InSet, Members: res.Set})
	} else { // ProblemMM: Validate rejects the other dynamic problems
		pairs := mt.MatchingPairs()
		payload.setAnswer(greedy.Answer{Size: len(pairs), Pairs: pairs})
	}
	e.sessions.checkin(key, mt)
	return payload, nil
}

// pick returns mm for a matching session and mis for an MIS one.
func pick[T any](problem Problem, mis, mm T) T {
	if problem == ProblemMM {
		return mm
	}
	return mis
}
