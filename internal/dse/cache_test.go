package dse

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/jacobi"
	"repro/internal/resultcache"
)

// cacheTestOptions is a cheap jacobi grid for cache-behaviour tests.
func cacheTestOptions(cores, cachesKB []int) Options {
	return Options{
		N:        16,
		Cores:    cores,
		CachesKB: cachesKB,
		Policies: []cache.Policy{cache.WriteBack},
		Variant:  jacobi.HybridFull,
		Warmup:   1,
		Measured: 1,
	}
}

// TestSweepCacheByteIdentical pins the core contract at the dse layer: a
// cached sweep returns exactly the points a cache-off sweep returns.
func TestSweepCacheByteIdentical(t *testing.T) {
	o := cacheTestOptions([]int{2, 4}, []int{4, 16})
	off, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = resultcache.New(resultcache.NewMemoryStore(0))
	cold, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	offCSV := PointsCSV(off)
	if got := PointsCSV(cold); got != offCSV {
		t.Errorf("cold-cache sweep differs from cache-off sweep:\n%s\nvs\n%s", got, offCSV)
	}
	if got := PointsCSV(warm); got != offCSV {
		t.Errorf("warm-cache sweep differs from cache-off sweep:\n%s\nvs\n%s", got, offCSV)
	}
	st := o.Cache.Stats()
	if st.Computes != uint64(len(off)) {
		t.Errorf("computes = %d, want %d (cold sweep only)", st.Computes, len(off))
	}
	if st.Hits != uint64(len(off)) {
		t.Errorf("hits = %d, want %d (warm sweep fully served)", st.Hits, len(off))
	}
}

// TestSweepOverlappingGridsDedup proves the cache is content-addressed,
// not run-scoped: two different sweeps sharing one cache hit on exactly
// their overlapping points. The second grid shares cores {4} x caches
// {4,16} with the first (2 points) and adds cores {8} (2 fresh points).
func TestSweepOverlappingGridsDedup(t *testing.T) {
	rc := resultcache.New(resultcache.NewMemoryStore(0))

	first := cacheTestOptions([]int{2, 4}, []int{4, 16})
	first.Cache = rc.Scope()
	if _, err := SweepCtx(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if st := first.Cache.Stats(); st.Hits != 0 || st.Computes != 4 {
		t.Fatalf("first sweep stats %v, want 4 computes, 0 hits", st)
	}

	second := cacheTestOptions([]int{4, 8}, []int{4, 16})
	second.Cache = rc.Scope()
	pts, err := SweepCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("second sweep returned %d points, want 4", len(pts))
	}
	st := second.Cache.Stats()
	if st.Hits != 2 || st.Computes != 2 {
		t.Errorf("second sweep stats %v, want exactly the 2 overlapping points hit and the 2 fresh ones computed", st)
	}

	// The overlap must be invisible in the results: the cached cores=4
	// points equal a cache-off evaluation of the same grid.
	second.Cache = nil
	off, err := SweepCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PointsCSV(pts), PointsCSV(off); got != want {
		t.Errorf("cached overlapping sweep differs from cache-off:\n%s\nvs\n%s", got, want)
	}
}

// TestKernelSweepCacheByteIdentical extends the contract to the kernel
// sweep path: matmul and syncbench go through their own cached helpers
// and key domains, so each kernel is exercised separately.
func TestKernelSweepCacheByteIdentical(t *testing.T) {
	for _, k := range AllKernels() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			o := KernelOptions{Kernel: k, N: 16, Cores: []int{2, 4}, CachesKB: []int{8}}
			off, err := KernelSweepCtx(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			o.Cache = resultcache.New(resultcache.NewMemoryStore(0))
			if _, err := KernelSweepCtx(context.Background(), o); err != nil { // cold
				t.Fatal(err)
			}
			warm, err := KernelSweepCtx(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm) != len(off) {
				t.Fatalf("warm sweep returned %d points, want %d", len(warm), len(off))
			}
			for i := range off {
				// CyclesSkipped is the one documented exception to
				// byte-identity: it counts simulation work, and a recalled
				// point did not simulate (it is excluded from every
				// rendering for exactly this reason).
				w, o := warm[i], off[i]
				w.CyclesSkipped, o.CyclesSkipped = 0, 0
				if w != o {
					t.Errorf("point %d: warm %+v != off %+v", i, w, o)
				}
				if warm[i].CyclesSkipped != 0 {
					t.Errorf("point %d: recalled point claims %d skipped cycles", i, warm[i].CyclesSkipped)
				}
			}
			if st := o.Cache.Stats(); st.Hits < uint64(len(off)) {
				t.Errorf("warm sweep hits = %d, want >= %d (%v)", st.Hits, len(off), st)
			}
		})
	}
}
