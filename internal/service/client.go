package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// BackoffPolicy tells the client how to retry requests the server
// refused with 429 (queue full) or 503 (draining, ingest paused) —
// overload signals, not failures. A Retry-After header from the
// server, computed from its observed drain rate, takes precedence over
// the local schedule; without one the client backs off exponentially
// with jitter so a fleet of retrying clients does not reconverge on
// the same instant. The zero value disables retries entirely, keeping
// the default client behavior transparent.
type BackoffPolicy struct {
	// MaxAttempts caps total tries, the first included; values below 2
	// disable retries.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule; 0 means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps every computed wait; 0 means 5s.
	MaxDelay time.Duration
}

// wait computes the pause before retry number attempt (1-based).
// retryAfter, when parseable, is the server's own estimate of when
// capacity frees and is used verbatim (still capped by MaxDelay).
func (p BackoffPolicy) wait(attempt int, retryAfter string) time.Duration {
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		return min(time.Duration(secs)*time.Second, maxDelay)
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := maxDelay
	if shift := attempt - 1; shift < 20 && base<<shift < maxDelay {
		d = base << shift
	}
	// Equal jitter: half deterministic so progress is guaranteed, half
	// uniform so synchronized clients spread out.
	return d/2 + rand.N(d/2+1)
}

// retryableStatus reports whether code is a server-directed backoff
// signal rather than a terminal error.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// sleepCtx pauses for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client is a minimal Go client for the greedyd HTTP API, shared by
// cmd/loadgen, the examples, and the end-to-end tests.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry governs automatic retries of JSON mutations (submit,
	// generate, patch) the server refuses with 429 or 503. The zero
	// value never retries.
	Retry BackoffPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes an error body into a Go error.
func apiError(resp *http.Response) error {
	var body errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return fmt.Errorf("service: %s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("service: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
}

// do round-trips one request and returns the response status. in, when
// non-nil, is the body: an io.Reader is a raw upload, sent once, and
// anything else is marshalled as JSON. Only a JSON body retries per
// c.Retry when the server answers with a backoff signal (429/503): it
// is replayed from the same bytes on every attempt, so a retried
// submission stays byte-identical — which is what makes it safe: the
// engine's idempotency key dedups a retry whose predecessor was
// actually accepted. out receives the answer: a *[]byte takes its bytes
// and anything else decodes its JSON.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (int, error) {
	upload, isUpload := in.(io.Reader)
	var raw []byte
	attempts := 1
	if in != nil && !isUpload {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return 0, err
		}
		attempts = max(c.Retry.MaxAttempts, 1)
	}
	for attempt := 1; ; attempt++ {
		body, contentType := upload, "application/octet-stream"
		if raw != nil {
			body, contentType = bytes.NewReader(raw), "application/json"
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
		if err != nil {
			return 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode >= 400 {
			apiErr := apiError(resp)
			retryAfter := resp.Header.Get("Retry-After")
			resp.Body.Close()
			if attempt < attempts && retryableStatus(resp.StatusCode) {
				if serr := sleepCtx(ctx, c.Retry.wait(attempt, retryAfter)); serr != nil {
					return resp.StatusCode, apiErr
				}
				continue
			}
			return resp.StatusCode, apiErr
		}
		if p, ok := out.(*[]byte); ok {
			*p, err = io.ReadAll(resp.Body)
		} else {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		resp.Body.Close()
		return resp.StatusCode, err
	}
}

// Generate asks the server to build and register a graph.
func (c *Client) Generate(ctx context.Context, spec GenSpec) (GraphResponse, error) {
	var out GraphResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/graphs", spec, &out)
	return out, err
}

// Upload ingests a serialized graph (any supported format).
func (c *Client) Upload(ctx context.Context, body io.Reader) (GraphResponse, error) {
	var out GraphResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/graphs", body, &out)
	return out, err
}

// Patch applies an edge-update batch to a registered graph, producing
// (and returning the metadata of) a new content-addressed graph
// version.
func (c *Client) Patch(ctx context.Context, id string, req PatchRequest) (PatchResponse, error) {
	var out PatchResponse
	_, err := c.do(ctx, http.MethodPatch, "/v1/graphs/"+id, req, &out)
	return out, err
}

// GraphStats fetches the degree/connectivity statistics of a
// registered graph.
func (c *Client) GraphStats(ctx context.Context, id string) (GraphStatsResponse, error) {
	var out GraphStatsResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/graphs/"+id+"/stats", nil, &out)
	return out, err
}

// Submit submits a job.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobResponse, error) {
	var out JobResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Status fetches a job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Cancel cancels a queued or running job via DELETE /v1/jobs/{id} and
// returns the job's status at the moment of cancellation. A running
// job may still report state "running": its round loop transitions to
// "cancelled" within one round; poll Status (or Wait) to observe it.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	_, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Result fetches the raw result payload of a done job. The boolean
// reports whether the job is done; when false the returned bytes are
// nil and the caller should poll again.
func (c *Client) Result(ctx context.Context, id string) ([]byte, bool, error) {
	var raw []byte
	code, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	if err != nil || code == http.StatusAccepted {
		return nil, false, err
	}
	return raw, true, nil
}

// Wait polls a job until it finishes (done, failed, cancelled, or
// deadline_exceeded) or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// JobTrace fetches the recorded trace events of one job (oldest
// first). The server answers 404 when tracing is disabled or the job
// is unknown.
func (c *Client) JobTrace(ctx context.Context, id string) (TraceResponse, error) {
	var out TraceResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &out)
	return out, err
}

// TraceRecent fetches the most recent trace events across all jobs and
// requests; limit <= 0 uses the server default.
func (c *Client) TraceRecent(ctx context.Context, limit int) (TraceResponse, error) {
	path := "/v1/trace/recent"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out TraceResponse
	_, err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Metrics fetches the metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (Snapshot, error) {
	var out Snapshot
	_, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// EventFilter restricts an event stream subscription (see
// GET /v1/events): Job selects one job's events, Kinds the event kinds
// of interest. The zero value streams everything.
type EventFilter struct {
	Job   string
	Kinds []string
}

func (f EventFilter) query() string {
	q := url.Values{}
	if f.Job != "" {
		q.Set("job", f.Job)
	}
	if len(f.Kinds) > 0 {
		q.Set("kind", strings.Join(f.Kinds, ","))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Events subscribes to the server's live trace-event stream and calls
// fn for every received frame — data frames and heartbeat comments
// alike (filter with StreamEvent.IsComment). It blocks until ctx is
// cancelled (returning nil), the server ends the stream (nil after an
// "evicted" frame, io.ErrUnexpectedEOF on an abrupt cut), or fn returns
// an error (returned verbatim, stream closed).
func (c *Client) Events(ctx context.Context, f EventFilter, fn func(StreamEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/events"+f.query(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", sseContentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err != nil || mt != sseContentType {
		return fmt.Errorf("service: event stream has content type %q, want %q",
			resp.Header.Get("Content-Type"), sseContentType)
	}
	dec := NewSSEDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			if ctx.Err() != nil {
				// The transport surfaces cancellation as a read error
				// mid-frame; report the cancellation, not the symptom.
				return nil
			}
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}
