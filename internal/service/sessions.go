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
	m     map[sessKey]*greedy.Session
	lru   []sessKey
	limit int
}

// checkout removes and returns the cached session for key, if any.
// Checkout is exclusive: a Session is not safe for concurrent use, so
// it leaves the cache while a worker advances or reads it.
func (c *sessionCache) checkout(key sessKey) *greedy.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess, ok := c.m[key]
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
	return sess
}

// checkin parks a session under key, evicting the least recently used
// entry past the limit. If a racing worker already parked one for the
// key, the resident session wins (both describe the same deterministic
// state).
func (c *sessionCache) checkin(key sessKey, sess *greedy.Session) {
	if c.limit == 0 || sess == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	c.m[key] = sess
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
func (e *Engine) lineageSession(key sessKey) (*greedy.Session, string, [][]dynamic.Update) {
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
		if sess := e.sessions.checkout(sessKey{graphID: id, problem: key.problem, seed: key.seed}); sess != nil {
			return sess, id, chain
		}
	}
	return nil, "", nil
}

// executeDynamic answers a dynamic-plan job from the session cache:
// an exact-version session is a free read; an ancestor session is
// advanced by replaying the recorded patches (change-driven frontier
// repair — the work recorded in payload.Repair stays proportional to
// the flipped damage region); otherwise the worker's solver computes
// from scratch and opens a session for its version so later jobs on
// patched descendants can repair.
func (e *Engine) executeDynamic(ctx context.Context, job *Job, solver *greedy.Solver, payload ResultPayload) (ResultPayload, error) {
	h := job.handle
	g := h.Graph()
	plan := job.Spec.Plan
	payload.Dynamic = true
	key := sessKey{graphID: h.ID(), problem: job.Spec.Problem, seed: plan.Seed}

	sess := e.sessions.checkout(key)
	resolution := "hit" // exact-version session checkout: a free read
	if sess == nil {
		prior, from, chain := e.lineageSession(key)
		if prior != nil {
			repair := dynamic.RepairStats{}
			advanced := prior
			for i, batch := range chain {
				st, err := advanced.Apply(ctx, batch)
				repair.Add(st)
				cost := st.Cost()
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
				sess = advanced
				resolution = "replay"
				payload.Repaired = true
				payload.RepairedFrom = from
				payload.RepairBatches = len(chain)
				payload.Repair = &repair
				cost := repair.Cost()
				payload.Stats = greedy.Stats{Rounds: cost.Rounds, Attempts: cost.Attempts, EdgeInspections: cost.Inspections}
			}
		}
	}
	if sess == nil {
		resolution = "scratch"
		fresh, err := solver.Dynamic(ctx, job.Spec.Problem, g, plan.Options()...)
		if err != nil {
			return payload, err
		}
		sess = fresh
		payload.Stats = sess.InitStats()
	}
	// (A checkout hit at the exact version reads the maintained state
	// with zero Stats: no work was performed.)
	e.trace.Append(trace.Event{Kind: trace.KindResolve, Job: job.ID, Name: resolution,
		Batch: payload.RepairBatches})
	payload.setAnswer(sess.Answer())
	e.sessions.checkin(key, sess)
	return payload, nil
}
