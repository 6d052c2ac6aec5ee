// Package par provides the one sweep loop of the repository. Sweep runs
// a points-filtered subset of a canonical job list on a fixed worker pool
// and returns the results in filter order. Package scenario calls it once:
// a scenario expands into one canonical list of points across all its
// workloads, and a run hands Sweep that list (a shard run, its shard's
// indices as the filter).
//
// ForEachCtx is the pool underneath: a bounded number of goroutines pulls
// indices from a channel, so the goroutine count stays constant no matter
// how large the job grid grows. It stops dispatching new jobs when the
// context is canceled (in-flight jobs finish; the sweep stops at job
// granularity), converts a panicking job into a per-job *PanicError
// instead of crashing the process, and reports partial completion through
// *CanceledError.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is the structured error a panicking job is converted into:
// the job index, the recovered value and the goroutine stack at the point
// of the panic. The worker that recovered it keeps serving the remaining
// jobs — one poisoned configuration fails its own sweep point only.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// CanceledError reports a sweep stopped by context cancellation: Done of
// Total jobs completed before the stop. It unwraps to the context's error
// so errors.Is(err, context.Canceled/DeadlineExceeded) works.
type CanceledError struct {
	Done  int
	Total int
	Err   error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("par: canceled after %d of %d jobs: %v", e.Done, e.Total, e.Err)
}

// Unwrap exposes the underlying context error.
func (e *CanceledError) Unwrap() error { return e.Err }

// Sweep runs the jobs selected by points on a fixed pool of workers
// goroutines and returns one result per selected job: result i belongs to
// jobs[points[i]]. jobs is the sweep's canonical point order; points ==
// nil selects all of it, otherwise the indices must be strictly increasing
// and in range (the shard layer's partitions are). Each result slot is
// written by exactly one job, so run needs no synchronization of its own
// for it. Errors, panics and cancellation have ForEachCtx's shapes; on any
// error no results are returned.
func Sweep[J, R any](ctx context.Context, jobs []J, points []int, workers int, run func(context.Context, J) (R, error)) ([]R, error) {
	prev := -1
	for _, p := range points {
		if p <= prev {
			return nil, fmt.Errorf("par: point filter not strictly increasing at index %d", p)
		}
		if p >= len(jobs) {
			return nil, fmt.Errorf("par: point filter index %d outside the %d-point sweep", p, len(jobs))
		}
		prev = p
	}
	n := len(jobs)
	if points != nil {
		n = len(points)
	}
	out := make([]R, n)
	err := ForEachCtx(ctx, n, workers, func(i int) error {
		j := i
		if points != nil {
			j = points[i]
		}
		r, err := run(ctx, jobs[j])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachCtx runs fn(i) for every i in [0, n) on a fixed pool of workers
// goroutines (workers <= 0 means GOMAXPROCS) and returns after every
// started call has finished.
//
// Cancellation is cooperative at job granularity: once ctx is canceled no
// further jobs start, in-flight jobs run to completion (long-running jobs
// should additionally watch ctx themselves), and the returned error is a
// *CanceledError wrapping ctx.Err(), joined with any per-job errors.
//
// A job that panics does not crash the process: the panic is recovered in
// the worker and recorded as a *PanicError for that index, and the worker
// moves on to the next job. Per-job errors (returned or recovered) are
// joined in index order, so the combined error is deterministic no matter
// how the jobs interleaved.
func ForEachCtx(ctx context.Context, n, workers int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	done := make([]bool, n)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = runJob(i, fn)
				done[i] = true
			}
		}()
	}
	canceled := false
dispatch:
	for i := 0; i < n; i++ {
		select {
		case ch <- i:
		case <-ctx.Done():
			canceled = true
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	// Join per-job errors in index order: deterministic regardless of the
	// execution interleaving.
	var all []error
	completed := 0
	for i := 0; i < n; i++ {
		if done[i] && errs[i] == nil {
			completed++
		}
		if errs[i] != nil {
			all = append(all, errs[i])
		}
	}
	if canceled {
		all = append([]error{&CanceledError{Done: completed, Total: n, Err: ctx.Err()}}, all...)
	}
	return errors.Join(all...)
}

// runJob executes one job with panic isolation.
func runJob(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
