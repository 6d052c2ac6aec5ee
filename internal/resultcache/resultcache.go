// Package resultcache exploits the simulator's determinism contract —
// every sweep point is a pure function of (configuration, seed, code
// version) — by content-addressing simulation results: a canonical key
// derived from the full point configuration plus a code-version stamp
// names the result bytes, a pluggable Store holds them (in-memory LRU
// with a byte budget, or an on-disk store whose per-entry checksums turn
// corruption into misses), and a singleflight layer collapses concurrent
// computations of the same key into one.
//
// The cache is proven harmless, not assumed so: the differential test
// battery in internal/scenario renders every shipped scenario cold-cache,
// warm-cache, disk-backed and cache-off and requires byte-identical
// output, and the property/fuzz tests here require that any single field
// mutation changes the key and that a corrupted entry is never served.
//
// The package also provides the Merkle run ledger: a result set hashes
// into a Merkle tree whose root names the entire run, so two runs agree
// point for point exactly when their roots are equal.
//
// A nil *Cache is valid everywhere and means "cache off": lookups miss,
// computes run directly, nothing is stored. That is what lets the cache
// thread through dse.KernelSweepCtx, the scenario runner and internal/serve
// without forking any execution path.
package resultcache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CodeVersion stamps every cache key. It names the simulation semantics,
// not the storage format: bump it whenever a change makes any simulated
// cycle count differ (engine, kernels, routers, topologies, cost model),
// and every old entry silently becomes a miss instead of a wrong hit.
// Golden values like the jacobi 94177 cycle count are the tripwire that
// says when a bump is due.
var CodeVersion = "medea-2026.08"

// Stats is a point-in-time counter snapshot of one Cache (or one Scope of
// it). Hits served from the store, Dedups served by joining another
// caller's in-flight compute, Misses that led to a compute of our own.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Dedups   uint64 `json:"dedups"`
	Computes uint64 `json:"computes"`
}

// Lookups counts every GetOrCompute call that reached the cache.
func (s Stats) Lookups() uint64 { return s.Hits + s.Dedups + s.Misses }

// HitRate is the fraction of lookups served without a fresh compute
// (store hits plus singleflight joins); 0 when there were no lookups.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits+s.Dedups) / float64(n)
	}
	return 0
}

// String renders the snapshot for log lines.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d dedups, %d computes (hit rate %.0f%%)",
		s.Hits, s.Misses, s.Dedups, s.Computes, 100*s.HitRate())
}

// call is one in-flight computation; joiners wait on done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache fronts a Store with singleflight deduplication and counters. Use
// New; a nil *Cache is the documented "cache off" mode. All methods are
// safe for concurrent use.
type Cache struct {
	store Store

	// root owns the in-flight table; Scope children share it so two jobs
	// computing the same key still collapse to one simulation.
	root *Cache

	mu       sync.Mutex
	inflight map[Key]*call

	hits, misses, dedups, computes atomic.Uint64
	parent                         *Cache // stats bubble up from scopes
}

// New builds a Cache over the store.
func New(store Store) *Cache {
	c := &Cache{store: store, inflight: make(map[Key]*call)}
	c.root = c
	return c
}

// Scope returns a view of the cache with its own zeroed counters: it
// shares the parent's store and in-flight table (so deduplication still
// spans scopes) and every hit or miss counts both locally and in the
// parent chain. internal/serve gives each job a scope so job status can
// report per-job hit counts while the daemon keeps global ones. Scope on
// a nil cache returns nil (still "cache off").
func (c *Cache) Scope() *Cache {
	if c == nil {
		return nil
	}
	return &Cache{store: c.store, root: c.root, parent: c}
}

// Stats returns a snapshot of this cache's (or scope's) counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Dedups:   c.dedups.Load(),
		Computes: c.computes.Load(),
	}
}

func (c *Cache) count(f func(*Cache)) {
	for n := c; n != nil; n = n.parent {
		f(n)
	}
}

// AddExternal folds a Stats delta produced elsewhere — typically a shard
// worker process reporting its own cache counters — into this scope and
// every parent, so distributed runs bubble into the same counters a
// single-process run would have incremented. Nil-safe no-op.
func (c *Cache) AddExternal(s Stats) {
	if c == nil {
		return
	}
	c.count(func(n *Cache) {
		n.hits.Add(s.Hits)
		n.misses.Add(s.Misses)
		n.dedups.Add(s.Dedups)
		n.computes.Add(s.Computes)
	})
}

// GetOrCompute returns the bytes stored under key, computing and storing
// them on a miss. The bool result reports whether the bytes came from the
// cache (a store hit or a singleflight join) rather than a fresh compute.
//
// Concurrent callers of the same uncomputed key run compute exactly once:
// the first becomes the leader, the rest block on its completion and
// share its value. done is re-checked under the in-flight lock, so the
// exactly-once guarantee holds even when a caller races the leader's
// completion. If the leader fails, joiners receive its error; a panic in
// compute propagates on the leader's goroutine (where par.ForEachCtx
// isolates it) and fails the joiners with a structured error instead of
// deadlocking them.
//
// A nil receiver runs compute directly and stores nothing.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, bool, error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	r := c.root
	if v, ok := r.store.Get(key); ok {
		c.count(func(n *Cache) { n.hits.Add(1) })
		return v, true, nil
	}
	r.mu.Lock()
	// Re-check the store under the lock: a leader publishes its value to
	// the store before removing its in-flight entry (also under this
	// lock), so a caller that missed above either sees the value here or
	// finds the leader still in flight — never neither.
	if v, ok := r.store.Get(key); ok {
		r.mu.Unlock()
		c.count(func(n *Cache) { n.hits.Add(1) })
		return v, true, nil
	}
	if cl, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return nil, false, cl.err
		}
		c.count(func(n *Cache) { n.dedups.Add(1) })
		return cl.val, true, nil
	}
	cl := &call{done: make(chan struct{})}
	r.inflight[key] = cl
	r.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// compute panicked: fail the joiners with a structured error
			// and let the panic continue up the leader's stack.
			cl.err = fmt.Errorf("resultcache: compute for %s panicked", key)
		}
		if cl.err == nil {
			// Publish before removing the in-flight entry (the removal is
			// under the same lock readers re-check the store under), so a
			// racing reader either joins this call or hits the store.
			r.store.Put(key, cl.val)
		}
		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	finished = true
	if cl.err != nil {
		return nil, false, cl.err
	}
	c.count(func(n *Cache) { n.misses.Add(1); n.computes.Add(1) })
	return cl.val, false, nil
}
