// Package serve implements the MEDEA simulation-as-a-service daemon
// behind cmd/medea-serve: an HTTP/JSON front end that accepts scenario
// submissions (validated by the same strict loader the CLI uses), runs
// them on a shared worker pool behind a bounded queue, and exposes
// polling, result retrieval and lifecycle endpoints.
//
// The package is built around four robustness guarantees:
//
//   - Backpressure: the queue is a fixed-depth channel. A submission that
//     finds it full is rejected immediately (HTTP 429 + Retry-After), not
//     buffered without bound.
//   - Cancellation: every job runs under a context derived from the
//     server's base context, optionally deadline-bounded (Config.
//     JobTimeout). Cancellation is cooperative and bounded: the simulation
//     engine polls the context every few thousand simulated cycles and the
//     run stops its program coroutines, so a canceled job releases its
//     worker quickly and leaks nothing.
//   - Panic isolation: a panic inside one job — in a sweep worker (caught
//     by par.ForEachCtx) or in a simulated program (caught by
//     pe.Proc.Launch) or anywhere else on the job path (caught here) —
//     fails that job with a structured error; the server keeps serving.
//   - Graceful drain: Shutdown stops admission, lets queued and running
//     jobs finish, and past the drain deadline cancels what is left;
//     every accepted job ends in a terminal state, none are lost.
//
// Results render through Scenario.Render, the exact path the CLI uses, so
// serve-path output is byte-identical to cmd/medea-scenarios for the same
// scenario (the determinism tests pin this).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// State is a job's lifecycle state. Jobs move queued -> running ->
// (done | failed | canceled); a queued job canceled before a worker picks
// it up moves straight to canceled.
type State string

// The five job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Runner executes one validated scenario. The default is scenario.RunCtx;
// tests inject fakes to exercise the job machinery without multi-second
// simulations.
type Runner func(ctx context.Context, s *scenario.Scenario) ([]scenario.Result, error)

// Config parameterizes a Server. Zero fields take the documented
// defaults.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-started jobs
	// (default 16). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// Workers is the number of jobs running concurrently (default 2).
	// Each job may itself fan out across Parallelism simulations.
	Workers int
	// JobTimeout is the per-job deadline (0 = none). An expired job is
	// canceled cooperatively — its worker is released, nothing leaks.
	JobTimeout time.Duration
	// RetryAfter is the backpressure hint returned with 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds submission bodies (default 1 MiB); larger
	// requests get 413.
	MaxBodyBytes int64
	// Runner executes jobs (default scenario.RunCtx).
	Runner Runner
	// Cache is the daemon-wide result cache (nil = off). Each job runs
	// under its own resultcache scope of it, so a resubmitted scenario is
	// served from the store — job status reports the per-job hit counts —
	// while deduplication and the byte budget stay daemon-global.
	Cache *resultcache.Cache
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Runner == nil {
		c.Runner = scenario.RunCtx
	}
	return c
}

// Sentinel errors of the job API; the HTTP layer maps them to status
// codes (429, 503, 404, 409) and the Client maps the codes back. A full
// queue is reported as a *QueueFullError, which unwraps to ErrQueueFull.
var (
	ErrQueueFull   = errors.New("serve: job queue full")
	ErrDraining    = errors.New("serve: server is draining")
	ErrNotFound    = errors.New("serve: no such job")
	ErrNotFinished = errors.New("serve: job has not finished")
)

// JobStatus is a point-in-time snapshot of one job, also the JSON shape
// of the status endpoints.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Scenario string `json:"scenario"`
	// Points is the sweep size (scenario.NumPoints), so clients can judge
	// cost before polling.
	Points int `json:"points"`
	// Error carries the failure or cancellation cause once terminal.
	Error string `json:"error,omitempty"`
	// Cache is this job's result-cache counters (absent when the daemon
	// runs without a cache): live while running, final once terminal. A
	// resubmitted scenario shows hits == points.
	Cache *resultcache.Stats `json:"cache,omitempty"`
	// MerkleRoot is the run ledger root over the job's result set, set
	// once done: one content address for the whole run, equal roots mean
	// point-for-point identical results.
	MerkleRoot string `json:"merkle_root,omitempty"`
	// QueuedAt, StartedAt and FinishedAt are the job's timeline: accepted,
	// picked up by a worker, settled. Each is absent until the job gets
	// there (a job canceled in the queue never starts). They are status
	// only: no rendered result or Merkle root sees them.
	QueuedAt   time.Time `json:"queued_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// job is the server-internal record; all fields below mu-guarded state
// are written under Server.mu.
type job struct {
	id         string
	scenario   *scenario.Scenario
	points     int // scenario.NumPoints, expanded once at submission
	state      State
	err        string
	results    []scenario.Result
	cancel     context.CancelFunc // non-nil exactly while running
	cache      *resultcache.Cache // per-job scope; nil when the daemon has no cache
	merkleRoot string             // set with StateDone

	queuedAt, startedAt, finishedAt time.Time
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Scenario:   j.scenario.Name,
		Points:     j.points,
		Error:      j.err,
		MerkleRoot: j.merkleRoot,
		QueuedAt:   j.queuedAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
	}
	if j.cache != nil {
		stats := j.cache.Stats()
		st.Cache = &stats
	}
	return st
}

// Server owns the bounded queue, the worker pool and the job table. Use
// New; the zero value is not runnable.
type Server struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	workers    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for List
	seq      int
	draining bool
	// queueFull counts submissions turned away by a full queue (the
	// 429s), for /metrics.
	queueFull int
}

// New builds a Server and starts its worker pool. Call Shutdown to drain
// it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a validated scenario and returns the new job's status.
// It never blocks: a full queue returns a *QueueFullError (backpressure;
// errors.Is(err, ErrQueueFull) holds) and a draining server returns
// ErrDraining.
func (s *Server) Submit(sc *scenario.Scenario) (JobStatus, error) {
	points := sc.NumPoints()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.seq),
		scenario: sc,
		points:   points,
		state:    StateQueued,
		queuedAt: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.seq-- // the id was never exposed; keep the sequence dense
		s.queueFull++
		return JobStatus{}, &QueueFullError{RetryAfter: s.cfg.RetryAfter}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j.status(), nil
}

// Status returns a snapshot of one job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel cancels one job: a queued job moves straight to canceled (its
// queue slot is skipped by the worker that drains it), a running job has
// its context canceled and reaches the canceled state once the simulation
// notices (bounded by the engine's poll interval). Terminal jobs are left
// as they are. The returned status is the state right after the call, so
// a just-canceled running job still reports "running".
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = "canceled before start"
		j.finishedAt = time.Now()
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.status(), nil
}

// Result renders a finished job's results in the given format ("" means
// the scenario's own output setting, else table — exactly the CLI's
// precedence; a figure format that does not fit the job's workload is an
// error). Non-terminal or unsuccessful jobs return ErrNotFinished or
// the job's own failure alongside the status snapshot.
func (s *Server) Result(id, format string) (string, JobStatus, error) {
	out, _, st, err := s.result(id, format)
	return out, st, err
}

// result is Result that also returns the format it resolved, which the
// HTTP handler labels the response with.
func (s *Server) result(id, format string) (out, resolved string, st JobStatus, err error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return "", "", JobStatus{}, ErrNotFound
	}
	st = j.status()
	if j.state != StateDone {
		s.mu.Unlock()
		if st.State.Terminal() {
			return "", "", st, fmt.Errorf("serve: job %s %s: %s", id, st.State, st.Error)
		}
		return "", "", st, ErrNotFinished
	}
	results, sc := j.results, j.scenario
	s.mu.Unlock()
	if resolved, err = sc.ResolveFormat(format); err != nil {
		return "", "", st, err
	}
	out, err = sc.Render(results, resolved)
	return out, resolved, st, err
}

// Draining reports whether Shutdown has been called (readiness turns
// false and submissions are rejected).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: admission stops immediately, then queued
// and running jobs are given until ctx expires to finish. Past the
// deadline everything still in flight is canceled cooperatively and
// Shutdown waits for the (bounded) cancellations to land. Either way
// every accepted job ends terminal — finished jobs keep their results,
// interrupted ones read canceled — and the worker pool has exited when
// Shutdown returns. The returned error is ctx's error if the deadline
// forced cancellations, nil if everything finished in time; both are
// clean exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		// Safe: submissions check draining under mu before sending, so no
		// send can race this close.
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel in-flight jobs; cancellation is bounded
		<-done
		return ctx.Err()
	}
}

// worker consumes the queue until it is closed and empty (drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob moves one job through running to a terminal state.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting; its slot drains with no work.
		s.mu.Unlock()
		return
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	// The job gets its own scope of the daemon cache: shared store and
	// in-flight table (cross-job deduplication), per-job counters for the
	// status endpoint. On a cacheless daemon both stay nil and the runner
	// sees the documented cache-off mode.
	j.cache = s.cfg.Cache.Scope()
	j.scenario.Cache = j.cache
	s.mu.Unlock()
	defer cancel()

	results, err := runSafely(s.cfg.Runner, ctx, j.scenario)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.finishedAt = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.results = results
		j.merkleRoot = scenario.MerkleRoot(results)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Job deadline, DELETE, or drain-deadline cancellation.
		j.state = StateCanceled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
}

// runSafely is the last line of panic isolation: anything that escapes
// the runner on the worker goroutine becomes this job's structured
// failure instead of crashing the daemon. (Panics inside sweep workers
// and simulated programs are already converted to errors by
// par.ForEachCtx and pe.Proc.Launch respectively.)
func runSafely(run Runner, ctx context.Context, sc *scenario.Scenario) (results []scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run(ctx, sc)
}
