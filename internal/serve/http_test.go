package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

func post(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding JobStatus: %v", err)
	}
	return st
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return []scenario.Result{}, nil
	}})
	defer shutdownAll(t, s, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, smallScenarioJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID != "job-000001" || st.Scenario != "http-test" || st.Points != 1 {
		t.Fatalf("submit returned %+v", st)
	}

	waitState(t, s, st.ID, StateDone)
	resp = get(t, ts, "/v1/jobs/"+st.ID)
	if got := decodeStatus(t, resp); got.State != StateDone {
		t.Fatalf("poll state = %s, want done", got.State)
	}

	// A second job whose scenario says "output": "json".
	jsonJob := decodeStatus(t, post(t, ts, strings.Replace(smallScenarioJSON, `"output": "csv"`, `"output": "json"`, 1)))
	waitState(t, s, jsonJob.ID, StateDone)

	// The content type follows the format the bytes are in: ?format= over
	// the scenario's "output", else table.
	for _, tc := range []struct{ id, query, want string }{
		{st.ID, "", "text/plain; charset=utf-8"},
		{st.ID, "?format=json", "application/json"},
		{jsonJob.ID, "", "application/json"},
		{jsonJob.ID, "?format=table", "text/plain; charset=utf-8"},
	} {
		resp = get(t, ts, "/v1/jobs/"+tc.id+"/result"+tc.query)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s result%s: status = %d, want 200", tc.id, tc.query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.want {
			t.Errorf("%s result%s: content type = %q, want %q", tc.id, tc.query, ct, tc.want)
		}
	}

	// The list endpoint reports submission order.
	resp = get(t, ts, "/v1/jobs")
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
		{"oversized", string(bytes.Repeat([]byte("x"), 8192)), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := post(t, ts, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// None of the rejects may have created a job.
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("%d jobs exist after rejected submissions", len(jobs))
	}

	resp := get(t, ts, "/v1/jobs/job-404/result")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-job result status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		Runner: blockingRunner(started, release),
	})
	defer shutdownAll(t, s, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the worker, then the queue.
	for i := 0; i < 2; i++ {
		resp := post(t, ts, smallScenarioJSON)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("warm-up submit %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			<-started
		}
	}
	resp := post(t, ts, smallScenarioJSON)
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := post(t, ts, smallScenarioJSON)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("warm-up submit %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			<-started
		}
	}
	resp := post(t, ts, smallScenarioJSON)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q (clamped up from 100ms)", ra, "1")
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := decodeStatus(t, post(t, ts, smallScenarioJSON))
	<-started
	// Still running: the result endpoint must say so, not block.
	resp := get(t, ts, "/v1/jobs/"+st.ID+"/result")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d, want 409", resp.StatusCode)
	}
	// Once the deadline kills it, the conflict carries the cause.
	waitState(t, s, st.ID, StateCanceled)
	resp = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: status %d, want 409", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["state"] != string(StateCanceled) {
		t.Errorf("conflict body = %v, want state canceled", body)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return nil, nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp := get(t, ts, path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d before drain, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Draining: liveness stays green (the process is healthy), readiness
	// flips so load balancers stop routing new work, and submissions 503.
	resp := get(t, ts, "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", resp.StatusCode)
	}
	resp = get(t, ts, "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp = post(t, ts, smallScenarioJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPCancelEndpoint(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := decodeStatus(t, post(t, ts, smallScenarioJSON))
	<-started
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	waitState(t, s, st.ID, StateCanceled)
}
