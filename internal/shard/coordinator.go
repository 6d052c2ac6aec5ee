package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// DefaultRetries is how many times a shard is retried on a replacement
// worker after transport failures before the run is abandoned.
const DefaultRetries = 2

// Coordinator fans one scenario sweep out over workers and merges the
// rows back into canonical order. The zero value is not runnable:
// NewWorker and Shards are required.
type Coordinator struct {
	// NewWorker starts one worker under the given context (canceled when
	// the run ends). HTTPFactory builds it from worker URLs.
	NewWorker func(ctx context.Context) (Worker, error)
	// Shards is the number of partitions (>= 1).
	Shards int
	// Workers caps concurrently running workers; 0 means one per shard.
	// Only bench/'s stdio probes set it; the ROADMAP item "One benchmark
	// PR, then the stdio transport goes" deletes it.
	Workers int
	// Retries is the per-shard transport-failure retry budget; < 0 means
	// none, 0 means DefaultRetries.
	Retries int
	// Parallelism overrides each worker's in-process sweep concurrency
	// (shards x parallelism concurrent simulations fleet-wide); 0 keeps
	// the scenario's own setting.
	Parallelism int
	// Logf, when non-nil, receives per-shard progress lines.
	Logf func(format string, args ...any)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Run executes the scenario across the fleet and returns the merged
// results in canonical order, plus the summed worker cache counters
// (bubble them into a local scope with resultcache.Cache.AddExternal).
// Each worker's rows are verified against its reported Merkle sub-root
// on receipt; the caller verifies the end-to-end claim by comparing
// scenario.MerkleRoot over the merged results with a single-process
// root (the golden tests do exactly that).
func (c *Coordinator) Run(ctx context.Context, s *scenario.Scenario) ([]scenario.Result, resultcache.Stats, error) {
	var zero resultcache.Stats
	if c.Shards < 1 {
		return nil, zero, fmt.Errorf("shard: shards must be >= 1, got %d", c.Shards)
	}
	if c.NewWorker == nil {
		return nil, zero, fmt.Errorf("shard: coordinator has no worker factory")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, zero, fmt.Errorf("shard: marshaling scenario: %w", err)
	}
	// A request over the workers' MaxRequest bound would get a 413 on
	// every retry, so measure the largest one this run sends up front
	// (marshaling cannot fail: raw is json.Marshal's own output).
	largest, _ := json.Marshal(&Request{Version: ProtocolVersion, ID: math.MaxInt64, Scenario: raw,
		Shard: c.Shards, Shards: c.Shards, Parallelism: c.Parallelism, CodeVersion: resultcache.CodeVersion})
	if len(largest) > MaxRequest {
		return nil, zero, fmt.Errorf("shard: a request for this scenario takes %d bytes, over the workers' %d-byte bound", len(largest), MaxRequest)
	}
	retries := c.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	workers := c.Workers
	if workers <= 0 || workers > c.Shards {
		workers = c.Shards
	}

	// runCtx scopes the whole fleet: it is canceled when Run returns, so
	// no worker request outlives the run, and fail() cancels it to
	// wake workers blocked on the queue or mid-exchange.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type task struct{ shard, attempt int }
	// Every shard exists in the queue at most once at any moment (it is
	// either queued, running, or done), so capacity shards x (retries+1)
	// means requeues can never block.
	queue := make(chan task, c.Shards*(retries+1))
	for i := 0; i < c.Shards; i++ {
		queue <- task{shard: i}
	}

	var (
		mu        sync.Mutex
		rows      []scenario.Row
		stats     resultcache.Stats
		completed int
		failure   error
	)
	fail := func(err error) {
		mu.Lock()
		if failure == nil {
			failure = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var w Worker
			defer func() {
				if w != nil {
					w.Close()
				}
			}()
			for {
				var t task
				select {
				case <-runCtx.Done():
					return
				case tt, ok := <-queue:
					if !ok {
						return
					}
					t = tt
				}
				if w == nil {
					nw, err := c.NewWorker(runCtx)
					if err != nil {
						fail(fmt.Errorf("shard: starting worker %d: %w", wi, err))
						return
					}
					w = nw
				}
				req := &Request{
					Scenario:    raw,
					Shard:       t.shard,
					Shards:      c.Shards,
					Parallelism: c.Parallelism,
					CodeVersion: resultcache.CodeVersion,
				}
				resp, err := w.Run(runCtx, req, func(p *Response) {
					c.logf("shard %d/%d: started on worker %d (%d points)", t.shard, c.Shards, wi, p.Total)
				})
				if err != nil {
					if runCtx.Err() != nil {
						return
					}
					mu.Lock()
					done := completed
					mu.Unlock()
					c.logf("shard %d/%d: attempt %d failed on worker %d (%d of %d shards completed): %v",
						t.shard, c.Shards, t.attempt+1, wi, done, c.Shards, err)
					// The worker is unusable; replace it and retry the
					// shard if budget remains.
					w.Close()
					w = nil
					if t.attempt >= retries {
						fail(fmt.Errorf("shard: shard %d failed %d times, giving up: %w", t.shard, t.attempt+1, err))
						return
					}
					queue <- task{shard: t.shard, attempt: t.attempt + 1}
					continue
				}
				if resp.Type == TypeError {
					// Application failure: deterministic, retrying would
					// fail identically.
					fail(fmt.Errorf("shard: shard %d: %s", t.shard, resp.Error))
					return
				}
				if got := RowsRoot(resp.Rows); got != resp.Root {
					fail(fmt.Errorf("shard: shard %d: transport root mismatch (worker sent %s, rows hash to %s)", t.shard, resp.Root, got))
					return
				}
				mu.Lock()
				rows = append(rows, resp.Rows...)
				if resp.Cache != nil {
					stats.Hits += resp.Cache.Hits
					stats.Misses += resp.Cache.Misses
					stats.Dedups += resp.Cache.Dedups
					stats.Computes += resp.Cache.Computes
				}
				completed++
				done := completed
				mu.Unlock()
				c.logf("shard %d/%d: merged %d rows (%d of %d shards complete)", t.shard, c.Shards, len(resp.Rows), done, c.Shards)
				if done == c.Shards {
					close(queue)
				}
			}
		}(wi)
	}
	wg.Wait()

	if failure != nil {
		return nil, zero, failure
	}
	if err := ctx.Err(); err != nil {
		return nil, zero, err
	}
	if completed != c.Shards {
		return nil, zero, fmt.Errorf("shard: only %d of %d shards completed", completed, c.Shards)
	}
	merged, err := scenario.MergeShards(s, rows)
	if err != nil {
		return nil, zero, err
	}
	return merged, stats, nil
}
