package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

const smallScenarioJSON = `{
	"name": "http-test",
	"workload": "noc-synthetic",
	"noc": {
		"width": 4, "height": 4,
		"patterns": ["uniform"], "rates": [0.1],
		"warmup_cycles": 100, "measure_cycles": 500
	},
	"output": "csv"
}`

// serveHTTP serves s on a loopback test server, closed when the test
// ends, and returns a Client for it.
func serveHTTP(t *testing.T, s *Server) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), ts
}

// submit sends body through the client and fails the test unless the job
// was accepted.
func submit(t *testing.T, c *Client, body string) JobStatus {
	t.Helper()
	st, err := c.Submit(t.Context(), strings.NewReader(body))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return st
}

// wantCode fails the test unless path answers code.
func wantCode(t *testing.T, ts *httptest.Server, path string, code int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	if resp.StatusCode != code {
		t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, code)
	}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return []scenario.Result{}, nil
	}})
	defer shutdownAll(t, s, nil)
	c, ts := serveHTTP(t, s)

	st := submit(t, c, smallScenarioJSON)
	if st.ID != "job-000001" || st.Scenario != "http-test" || st.Points != 1 {
		t.Fatalf("submit returned %+v", st)
	}
	if got, err := c.Wait(t.Context(), st.ID); err != nil || got.State != StateDone {
		t.Fatalf("Wait = %+v, %v; want done", got, err)
	}

	// A second job whose scenario says "output": "json".
	jsonJob := submit(t, c, strings.Replace(smallScenarioJSON, `"output": "csv"`, `"output": "json"`, 1))
	if _, err := c.Wait(t.Context(), jsonJob.ID); err != nil {
		t.Fatal(err)
	}

	// The content type follows the format the bytes are in: ?format= over
	// the scenario's "output", else table. It is a header, so this reads
	// the reply itself.
	for _, tc := range []struct{ id, query, want string }{
		{st.ID, "", "text/plain; charset=utf-8"},
		{st.ID, "?format=json", "application/json"},
		{jsonJob.ID, "", "application/json"},
		{jsonJob.ID, "?format=table", "text/plain; charset=utf-8"},
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + tc.id + "/result" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s result%s: status = %d, want 200", tc.id, tc.query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.want {
			t.Errorf("%s result%s: content type = %q, want %q", tc.id, tc.query, ct, tc.want)
		}
	}
	if out, err := c.Result(t.Context(), jsonJob.ID, ""); err != nil || !strings.HasPrefix(strings.TrimSpace(out), "[") {
		t.Errorf("Result(%s) = %q, %v; want a JSON array", jsonJob.ID, out, err)
	}
	// A figure format draws kernel rows: on a noc job it is a bad request.
	var se *StatusError
	if _, err := c.Result(t.Context(), st.ID, "fig9"); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Errorf("?format=fig9 of a noc job: %v, want HTTP 400", err)
	}

	// The list endpoint reports submission order.
	list, err := c.List(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "job-000001" || list[1].ID != jsonJob.ID {
		t.Errorf("list = %+v", list)
	}
}

func TestHTTPRejectsBadSubmissions(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 4096, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return nil, nil
	}})
	defer shutdownAll(t, s, nil)
	c, _ := serveHTTP(t, s)

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"name": "broken", "workload":`, http.StatusBadRequest},
		{"unknown field", `{"name": "x", "workload": "noc-synthetic", "bogus": 1}`, http.StatusBadRequest},
		// 100x100 parses as JSON, but its route tables would take 4.5 GiB
		// a point: the grid bound turns it away before any job exists.
		{"grid over the route-table bound", `{"name": "x", "workload": "noc-synthetic",
			"noc": {"width": 100, "height": 100, "patterns": ["uniform"], "rates": [0.01]}}`, http.StatusBadRequest},
		// n=3 is below jacobi.Spec's bound: refused at submit, not failed
		// on every point.
		{"jacobi grid below the kernel's bound", `{"name": "x", "workload": "jacobi",
			"kernel": {"n": 3, "cores": [2], "cache_kb": [4]}}`, http.StatusBadRequest},
		{"oversized", string(bytes.Repeat([]byte("x"), 8192)), http.StatusRequestEntityTooLarge},
		// A figure format the workload cannot draw is refused at submit.
		{"figure format on a noc scenario", strings.Replace(smallScenarioJSON, `"output": "csv"`, `"output": "fig6"`, 1), http.StatusBadRequest},
	}
	// So is one whose caption or table the file contradicts: Fig 8's
	// one-variant 30x30 sweep drawn as T-1, T-1's three variants as Fig 6.
	misfits := []struct{ file, format string }{
		{"scenarios/fig8-quick.json", "hybrid"},
		{"figures/hybrid.json", "fig6"},
	}
	for _, m := range misfits {
		cases = append(cases, struct {
			name, body string
			want       int
		}{"output " + m.format + " of " + m.file, withOutput(t, exampleJSON(t, m.file), m.format), http.StatusBadRequest})
	}
	for _, tc := range cases {
		_, err := c.Submit(t.Context(), strings.NewReader(tc.body))
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.want || se.Msg == "" {
			t.Errorf("%s: err = %v, want HTTP %d with a message", tc.name, err, tc.want)
		}
	}
	// None of the rejects may have created a job.
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("%d jobs exist after rejected submissions", len(jobs))
	}

	// The same misfits asked of finished jobs through ?format=.
	for _, m := range misfits {
		st := submit(t, c, exampleJSON(t, m.file))
		waitState(t, s, st.ID, StateDone)
		var se *StatusError
		if _, err := c.Result(t.Context(), st.ID, m.format); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("?format=%s of %s: %v, want HTTP 400", m.format, m.file, err)
		}
	}

	if _, err := c.Result(t.Context(), "job-404", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown-job result: %v, want ErrNotFound", err)
	}
	if _, err := c.Status(t.Context(), "job-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown-job status: %v, want ErrNotFound", err)
	}
}

// exampleJSON returns the bytes of examples/<file>.
func exampleJSON(t *testing.T, file string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withOutput returns the scenario JSON body with its "output" set to
// format.
func withOutput(t *testing.T, body, format string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	m["output"] = format
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fillQueue occupies the lone worker and the one queue slot of a
// Workers: 1, QueueDepth: 1 server running blockingRunner, then returns
// the error of one more submission.
func fillQueue(t *testing.T, c *Client, started <-chan string) error {
	t.Helper()
	submit(t, c, smallScenarioJSON)
	<-started
	submit(t, c, smallScenarioJSON)
	_, err := c.Submit(t.Context(), strings.NewReader(smallScenarioJSON))
	return err
}

func TestHTTPQueueFull429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		Runner: blockingRunner(started, release),
	})
	defer shutdownAll(t, s, release)
	c, ts := serveHTTP(t, s)

	err := fillQueue(t, c, started)
	var full *QueueFullError
	if !errors.Is(err, ErrQueueFull) || !errors.As(err, &full) {
		t.Fatalf("full-queue submit: %v, want a *QueueFullError", err)
	}
	if full.RetryAfter != 2*time.Second {
		t.Errorf("Retry-After = %v, want 2s", full.RetryAfter)
	}
	// The reply itself, as any other client sees it: 429, the header in
	// whole seconds and an {"error": ...} body.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want %q", ra, "2")
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Errorf("429 body = %v, %v; want an error message", e, err)
	}
	// The Server returns the same error value in process.
	_, err = s.Submit(testScenario(t, "in-process"))
	if !errors.As(err, &full) || full.RetryAfter != 2*time.Second {
		t.Errorf("Server.Submit into a full queue: %v, want a *QueueFullError with the 2s hint", err)
	}
}

// TestRetryAfterClamp pins the backpressure hint's floor. "Retry-After: 0"
// is an immediate-retry instruction — it turns every 429 into a hot retry
// loop — so the rendered value clamps to at least 1 whatever the config
// holds (zero, negative, or sub-second durations included).
func TestRetryAfterClamp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{time.Minute, 60},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestHTTPRetryAfterSubSecond drives the clamp end to end: a daemon
// configured with a sub-second hint must still advertise a whole positive
// second on its 429s.
func TestHTTPRetryAfterSubSecond(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 100 * time.Millisecond,
		Runner: blockingRunner(started, release),
	})
	defer shutdownAll(t, s, release)
	c, _ := serveHTTP(t, s)

	var full *QueueFullError
	if err := fillQueue(t, c, started); !errors.As(err, &full) {
		t.Fatalf("full-queue submit: %v, want a *QueueFullError", err)
	}
	if full.RetryAfter != time.Second {
		t.Errorf("Retry-After = %v, want 1s (clamped up from 100ms)", full.RetryAfter)
	}
}

func TestHTTPResultConflictStates(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed
	s := New(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 20 * time.Millisecond,
		Runner: blockingRunner(started, release),
	})
	defer shutdownAll(t, s, nil)
	c, _ := serveHTTP(t, s)

	st := submit(t, c, smallScenarioJSON)
	<-started
	// Still running: the result endpoint must say so, not block.
	if _, err := c.Result(t.Context(), st.ID, ""); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("result of running job: %v, want ErrNotFinished", err)
	}
	// Once the deadline kills it, the conflict carries the cause.
	if got, err := c.Wait(t.Context(), st.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("Wait = %+v, %v; want canceled", got, err)
	}
	_, err := c.Result(t.Context(), st.ID, "")
	if err == nil || errors.Is(err, ErrNotFinished) || !strings.Contains(err.Error(), string(StateCanceled)) {
		t.Errorf("result of canceled job: %v, want its cancellation cause", err)
	}
	// The same job through the Server in process reads the same.
	if _, _, serr := s.Result(st.ID, ""); serr == nil || serr.Error() != err.Error() {
		t.Errorf("in-process result error %v, over HTTP %v", serr, err)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return nil, nil
	}})
	c, ts := serveHTTP(t, s)

	wantCode(t, ts, "/healthz", http.StatusOK)
	wantCode(t, ts, "/readyz", http.StatusOK)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Draining: liveness stays green (the process is healthy), readiness
	// flips so load balancers stop routing new work, and submissions 503.
	wantCode(t, ts, "/healthz", http.StatusOK)
	wantCode(t, ts, "/readyz", http.StatusServiceUnavailable)
	if _, err := c.Submit(t.Context(), strings.NewReader(smallScenarioJSON)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
}

func TestHTTPCancelEndpoint(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)
	c, _ := serveHTTP(t, s)

	st := submit(t, c, smallScenarioJSON)
	<-started
	if got, err := c.Cancel(t.Context(), st.ID); err != nil || got.ID != st.ID {
		t.Fatalf("Cancel = %+v, %v", got, err)
	}
	if got, err := c.Wait(t.Context(), st.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("Wait = %+v, %v; want canceled", got, err)
	}
	if _, err := c.Cancel(t.Context(), "job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: %v, want ErrNotFound", err)
	}
}
