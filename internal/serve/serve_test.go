package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testScenario builds a small valid scenario named name. The noc workload
// keeps it cheap; unit tests here swap the Runner out anyway.
func testScenario(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse([]byte(fmt.Sprintf(`{
		"name": %q,
		"workload": "noc-synthetic",
		"noc": {
			"width": 4, "height": 4,
			"patterns": ["uniform"], "rates": [0.1],
			"warmup_cycles": 100, "measure_cycles": 500
		}
	}`, name)))
	if err != nil {
		t.Fatalf("building test scenario: %v", err)
	}
	return s
}

// blockingRunner blocks each job until release is closed (or its context
// ends), and signals on started as each job begins.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		select {
		case started <- sc.Name:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-release:
			return []scenario.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdownAll(t *testing.T, s *Server, release chan struct{}) {
	t.Helper()
	if release != nil {
		select {
		case <-release:
		default:
			close(release)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)

	// First job occupies the lone worker...
	if _, err := s.Submit(testScenario(t, "running")); err != nil {
		t.Fatalf("submit running: %v", err)
	}
	<-started
	// ...second fills the queue...
	if _, err := s.Submit(testScenario(t, "queued")); err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	// ...third must be rejected immediately, not buffered.
	_, err := s.Submit(testScenario(t, "rejected"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue: err = %v, want ErrQueueFull", err)
	}

	// Backpressure is transient: releasing the workers frees capacity.
	close(release)
	waitState(t, s, "job-000002", StateDone)
	st, err := s.Submit(testScenario(t, "retried"))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	// The rejected submission must not have burned an id.
	if st.ID != "job-000003" {
		t.Fatalf("id after rejection = %s, want job-000003", st.ID)
	}
	waitState(t, s, st.ID, StateDone)
}

func TestJobTimeoutCancelsNotLeaks(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: only the deadline ends the job
	s := New(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 20 * time.Millisecond,
		Runner: blockingRunner(started, release),
	})
	defer shutdownAll(t, s, nil)

	if _, err := s.Submit(testScenario(t, "overlong")); err != nil {
		t.Fatal(err)
	}
	<-started
	st := waitState(t, s, "job-000001", StateCanceled)
	if !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("canceled error = %q, want mention of the deadline", st.Error)
	}
	// The worker must be released: a follow-up job runs and times out too.
	if _, err := s.Submit(testScenario(t, "next")); err != nil {
		t.Fatalf("submit after timeout: %v", err)
	}
	waitState(t, s, "job-000002", StateCanceled)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)

	if _, err := s.Submit(testScenario(t, "running")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(testScenario(t, "queued")); err != nil {
		t.Fatal(err)
	}

	// A queued job cancels instantly, before any worker touches it.
	st, err := s.Cancel("job-000002")
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: state %s, err %v", st.State, err)
	}
	// A running job cancels cooperatively.
	if _, err := s.Cancel("job-000001"); err != nil {
		t.Fatal(err)
	}
	st = waitState(t, s, "job-000001", StateCanceled)
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Errorf("running-cancel error = %q", st.Error)
	}
	// Terminal jobs stay put; canceling again is an idempotent no-op.
	if st, err := s.Cancel("job-000002"); err != nil || st.State != StateCanceled {
		t.Fatalf("re-cancel: state %s, err %v", st.State, err)
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		if sc.Name == "boom" {
			panic("runner exploded")
		}
		return []scenario.Result{}, nil
	}})
	defer shutdownAll(t, s, nil)

	if _, err := s.Submit(testScenario(t, "boom")); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, "job-000001", StateFailed)
	if !strings.Contains(st.Error, "serve: job panicked") || !strings.Contains(st.Error, "runner exploded") {
		t.Errorf("panic error = %q, want structured panic report", st.Error)
	}
	// The daemon outlives the panic: the same worker keeps serving.
	if _, err := s.Submit(testScenario(t, "healthy")); err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	waitState(t, s, "job-000002", StateDone)
}

func TestDrainFinishesEverything(t *testing.T) {
	var ran atomic.Int32
	s := New(Config{Workers: 2, QueueDepth: 8, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		ran.Add(1)
		return []scenario.Result{}, nil
	}})

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s.Submit(testScenario(t, fmt.Sprintf("s%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	jobs := s.List()
	if len(jobs) != n {
		t.Fatalf("%d jobs after drain, want %d (none lost)", len(jobs), n)
	}
	for _, st := range jobs {
		if st.State != StateDone {
			t.Errorf("%s: state %s after generous drain, want done", st.ID, st.State)
		}
	}
	if got := int(ran.Load()); got != n {
		t.Errorf("runner ran %d times, want %d", got, n)
	}
	// A drained server refuses admission but still answers status reads.
	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if _, err := s.Submit(testScenario(t, "late")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
	if _, err := s.Status("job-000001"); err != nil {
		t.Errorf("status after drain: %v", err)
	}
}

func TestDrainDeadlineCancelsButLosesNoJob(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{}) // never closed: jobs end only via cancellation
	s := New(Config{Workers: 1, QueueDepth: 8, Runner: blockingRunner(started, release)})

	const n = 4 // one running, three queued
	for i := 0; i < n; i++ {
		if _, err := s.Submit(testScenario(t, fmt.Sprintf("s%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline: err = %v, want DeadlineExceeded", err)
	}
	// Shutdown has returned, so the worker pool has exited; every accepted
	// job must be terminal and accounted for.
	jobs := s.List()
	if len(jobs) != n {
		t.Fatalf("%d jobs after forced drain, want %d", len(jobs), n)
	}
	for _, st := range jobs {
		if !st.State.Terminal() {
			t.Errorf("%s: non-terminal state %s after Shutdown returned", st.ID, st.State)
		}
		if st.State != StateCanceled {
			t.Errorf("%s: state %s, want canceled (runner never finishes)", st.ID, st.State)
		}
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
		return nil, nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// A second Shutdown must not double-close the queue.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestResultLifecycle(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)

	if _, err := s.Submit(testScenario(t, "job")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Result("job-000001", ""); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("result before done: %v, want ErrNotFinished", err)
	}
	if _, _, err := s.Result("nope", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("result of unknown job: %v, want ErrNotFound", err)
	}
	<-started
	close(release)
	waitState(t, s, "job-000001", StateDone)
	out, st, err := s.Result("job-000001", scenario.FormatJSON)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if st.State != StateDone || !strings.HasPrefix(strings.TrimSpace(out), "[") {
		t.Errorf("result = %q (state %s), want JSON array", out, st.State)
	}
	if _, _, err := s.Result("job-000001", "yaml"); err == nil {
		t.Error("unknown format should fail the render")
	}
}

func TestRealSimulationCancelsWithinDeadline(t *testing.T) {
	// End to end against the real runner: a sweep that would simulate two
	// hundred million NoC cycles must die by the job deadline instead —
	// the engine polls its context every few thousand cycles.
	sc, err := scenario.Parse([]byte(`{
		"name": "endless",
		"workload": "noc-synthetic",
		"noc": {
			"width": 4, "height": 4,
			"patterns": ["uniform"], "rates": [0.1],
			"warmup_cycles": 100, "measure_cycles": 200000000
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 1, JobTimeout: 50 * time.Millisecond})
	defer shutdownAll(t, s, nil)
	if _, err := s.Submit(sc); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitState(t, s, "job-000001", StateCanceled)
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("cancellation took %s; cooperative abort should be far faster", elapsed)
	}
}

func TestRealSweepWorkerPanicIsolated(t *testing.T) {
	// A jacobi grid too large for the per-core private segment makes the
	// memory layout panic inside a sweep worker goroutine. par.ForEachCtx
	// must convert that into this job's failure — and the server must keep
	// serving afterwards.
	sc, err := scenario.Parse([]byte(`{
		"name": "poisoned",
		"workload": "jacobi",
		"kernel": {
			"n": 400, "variant": "hybrid-full",
			"cores": [2], "cache_kb": [2], "policies": ["write-back"],
			"warmup": 0, "measured": 1
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer shutdownAll(t, s, nil)
	if _, err := s.Submit(sc); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, "job-000001", StateFailed)
	if !strings.Contains(st.Error, "panic") {
		t.Errorf("poisoned job error = %q, want a converted panic", st.Error)
	}
	// The daemon is still healthy: a small real scenario completes.
	if _, err := s.Submit(testScenario(t, "healthy")); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "job-000002", StateDone)
}

// TestJobTimeline checks the status timeline: each stamp appears when the
// job reaches that point, the wire omits the ones not reached yet, and the
// stamps of one worker's jobs are ordered.
func TestJobTimeline(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	defer shutdownAll(t, s, release)

	for _, name := range []string{"first", "second", "third"} {
		if _, err := s.Submit(testScenario(t, name)); err != nil {
			t.Fatal(err)
		}
		if name == "first" {
			<-started
		}
	}
	if _, err := s.Cancel("job-000003"); err != nil {
		t.Fatal(err)
	}
	// The wire carries exactly the stamps each job has reached.
	for _, c := range []struct {
		id   string
		want []bool // queued_at, started_at, finished_at present
	}{
		{"job-000001", []bool{true, true, false}},  // running
		{"job-000002", []bool{true, false, false}}, // queued
		{"job-000003", []bool{true, false, true}},  // canceled in the queue
	} {
		st, err := s.Status(c.id)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range []string{`"queued_at"`, `"started_at"`, `"finished_at"`} {
			if got := strings.Contains(string(wire), key); got != c.want[i] {
				t.Errorf("%s (%s): %s present = %v, want %v\n%s", c.id, st.State, key, got, c.want[i], wire)
			}
		}
	}

	close(release)
	first := waitState(t, s, "job-000001", StateDone)
	second := waitState(t, s, "job-000002", StateDone)
	// The second job was submitted once the first had started, and the
	// lone worker picks it up only after the first has finished.
	ordered := []time.Time{first.QueuedAt, first.StartedAt, second.QueuedAt, first.FinishedAt, second.StartedAt, second.FinishedAt}
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Before(ordered[i-1]) {
			t.Errorf("timeline out of order at step %d: %v", i, ordered)
		}
	}
}
