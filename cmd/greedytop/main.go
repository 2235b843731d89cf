// Command greedytop is a live terminal dashboard for a running
// greedyd: it tails the daemon's /v1/events stream (Server-Sent
// Events) and renders job throughput, per-problem round and engine
// phase breakdowns, and dynamic-repair rates, refreshing in place like
// top(1).
//
// Everything shown comes from pushed events — greedytop never polls
// job status. The phase columns need the daemon to run with round
// sampling on (greedyd -trace-sample N), which also enables the
// engine's phase profiler for sampled jobs.
//
// Usage:
//
//	greedytop -addr http://localhost:8080
//	greedytop -addr http://localhost:8080 -refresh 500ms
//	greedytop -addr http://localhost:8080 -job J42AB...   # one job only
//	greedytop -plain                                      # no ANSI, append-only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "greedyd base URL")
		refresh = flag.Duration("refresh", time.Second, "screen refresh interval")
		jobID   = flag.String("job", "", "show only events of one job id")
		window  = flag.Duration("window", 10*time.Second, "sliding window for throughput rates")
		plain   = flag.Bool("plain", false, "append-only output without ANSI cursor control (for logs and pipes)")
	)
	flag.Parse()

	client := &service.Client{BaseURL: strings.TrimRight(*addr, "/")}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if _, err := client.Metrics(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "greedytop: server unreachable at %s: %v\n", *addr, err)
		os.Exit(1)
	}

	st := newState(*window)
	var streamErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop() // stream gone -> stop rendering
		streamErr = client.Events(ctx, service.EventFilter{Job: *jobID}, st.ingest)
	}()

	ticker := time.NewTicker(*refresh)
	defer ticker.Stop()
	for running := true; running; {
		select {
		case <-ctx.Done():
			running = false
		case <-ticker.C:
		}
		frame := st.render(*addr)
		if *plain {
			os.Stdout.WriteString(frame)
		} else {
			// Home the cursor and clear each drawn line to its end, then
			// clear below the frame: flicker-free in-place redraw.
			os.Stdout.WriteString("\x1b[H" + strings.ReplaceAll(frame, "\n", "\x1b[K\n") + "\x1b[J")
		}
	}
	wg.Wait()
	if streamErr != nil {
		fmt.Fprintf(os.Stderr, "greedytop: event stream ended: %v\n", streamErr)
		os.Exit(1)
	}
}

// problemAgg accumulates one problem's round/phase/repair telemetry.
type problemAgg struct {
	done, failed int64
	rounds       int64
	attempted    int64
	accepted     int64
	inspections  int64

	phaseSamples int64
	checkMS      float64
	commitMS     float64
	slideMS      float64
	retryTail    int64 // last sampled retry tail

	repairBatches int64
	visited       int64
	flipped       int64
}

// state is the dashboard model: everything the ingest goroutine learns
// from the stream, behind one mutex the renderer shares.
type state struct {
	mu sync.Mutex

	window     time.Duration
	started    time.Time
	events     uint64
	dropped    uint64
	submits    int64
	dedups     int64
	doneTimes  []time.Time // completions inside the sliding window
	byProblem  map[string]*problemAgg
	jobProblem map[string]string // job id -> problem (from submit events)
	lastEvent  time.Time
}

func newState(window time.Duration) *state {
	return &state{
		window:     window,
		started:    time.Now(),
		byProblem:  make(map[string]*problemAgg),
		jobProblem: make(map[string]string),
	}
}

// jobProblemCap bounds the job->problem map; oldest entries are not
// tracked individually, the map is simply reset when it fills (a
// dashboard, not a database).
const jobProblemCap = 1 << 16

func (s *state) agg(job string) *problemAgg {
	problem, ok := s.jobProblem[job]
	if !ok {
		problem = "?"
	}
	a := s.byProblem[problem]
	if a == nil {
		a = &problemAgg{}
		s.byProblem[problem] = a
	}
	return a
}

// ingest consumes one stream frame. It is the client.Events callback.
func (s *state) ingest(msg service.StreamEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if msg.IsComment() {
		if _, after, ok := strings.Cut(msg.Comment, "dropped="); ok {
			fmt.Sscanf(after, "%d", &s.dropped)
		}
		return nil
	}
	ev, err := msg.TraceEvent()
	if err != nil {
		return nil // tolerate unknown frames from a newer server
	}
	s.events++
	s.lastEvent = ev.Time
	switch ev.Kind {
	case trace.KindSubmit:
		if ev.Name == "dedup" {
			s.dedups++
			return nil
		}
		s.submits++
		if len(s.jobProblem) >= jobProblemCap {
			s.jobProblem = make(map[string]string)
		}
		s.jobProblem[ev.Job] = ev.Name
	case trace.KindDone:
		a := s.agg(ev.Job)
		if ev.Name == "done" {
			a.done++
			s.doneTimes = append(s.doneTimes, time.Now())
		} else {
			a.failed++
		}
	case trace.KindRound:
		a := s.agg(ev.Job)
		a.rounds++
		a.attempted += ev.Attempted
		a.accepted += ev.Accepted
		a.inspections += ev.Inspections
	case trace.KindPhase:
		a := s.agg(ev.Job)
		a.phaseSamples++
		a.checkMS += ev.CheckMS
		a.commitMS += ev.CommitMS
		a.slideMS += ev.SlideMS
		a.retryTail = int64(ev.RetryTail)
	case trace.KindRepair:
		a := s.agg(ev.Job)
		a.repairBatches++
		a.visited += int64(ev.Visited)
		a.flipped += int64(ev.Flipped)
	}
	return nil
}

// render draws one frame into a string (the caller decides how to put
// it on screen).
func (s *state) render(addr string) string {
	s.mu.Lock()
	defer s.mu.Unlock()

	now := time.Now()
	// Expire completions that slid out of the rate window.
	cut := 0
	for cut < len(s.doneTimes) && now.Sub(s.doneTimes[cut]) > s.window {
		cut++
	}
	s.doneTimes = s.doneTimes[cut:]
	rate := float64(len(s.doneTimes)) / s.window.Seconds()

	var b strings.Builder
	fmt.Fprintf(&b, "greedytop — %s — up %v — %d events, %d stream drops\n",
		addr, now.Sub(s.started).Round(time.Second), s.events, s.dropped)
	fmt.Fprintf(&b, "jobs: %d submitted, %d dedup hits, %.1f done/s (last %v)\n",
		s.submits, s.dedups, rate, s.window)
	if !s.lastEvent.IsZero() {
		fmt.Fprintf(&b, "last event %v ago\n", now.Sub(s.lastEvent).Round(time.Millisecond))
	}
	b.WriteString("\n")

	problems := make([]string, 0, len(s.byProblem))
	for p := range s.byProblem {
		problems = append(problems, p)
	}
	sort.Strings(problems)
	if len(problems) == 0 {
		b.WriteString("waiting for job events...\n")
		return b.String()
	}

	fmt.Fprintf(&b, "%-10s %7s %6s %8s %10s %12s  %s\n",
		"PROBLEM", "DONE", "FAIL", "ROUNDS", "ACC/ATT", "INSPECTIONS", "PHASES (sampled round time)")
	for _, p := range problems {
		a := s.byProblem[p]
		accAtt := "-"
		if a.attempted > 0 {
			accAtt = fmt.Sprintf("%.0f%%", 100*float64(a.accepted)/float64(a.attempted))
		}
		fmt.Fprintf(&b, "%-10s %7d %6d %8d %10s %12d  %s\n",
			p, a.done, a.failed, a.rounds, accAtt, a.inspections, phaseBar(a))
	}

	var repairs []string
	for _, p := range problems {
		a := s.byProblem[p]
		if a.repairBatches > 0 {
			repairs = append(repairs, fmt.Sprintf("%s: %d batches, %d visited, %d flipped (%.1f visited/batch)",
				p, a.repairBatches, a.visited, a.flipped, float64(a.visited)/float64(a.repairBatches)))
		}
	}
	if len(repairs) > 0 {
		b.WriteString("\nrepair:\n")
		for _, line := range repairs {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}

// phaseBar renders one problem's phase split as percentages plus the
// last sampled retry tail, e.g.
// "check 62% commit 21% slide 17% tail=128".
func phaseBar(a *problemAgg) string {
	total := a.checkMS + a.commitMS + a.slideMS
	if a.phaseSamples == 0 || total <= 0 {
		return "(no phase samples; run greedyd with -trace-sample)"
	}
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", 100*v/total) }
	return fmt.Sprintf("check %s commit %s slide %s tail=%d",
		pct(a.checkMS), pct(a.commitMS), pct(a.slideMS), a.retryTail)
}
