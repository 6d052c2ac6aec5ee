package dse

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/resultcache"
)

// TestSweepOverlappingGridsDedup proves the cache is content-addressed,
// not run-scoped: two different sweeps sharing one cache hit on exactly
// their overlapping points. The second grid shares cores {4} x caches
// {4,16} with the first (2 points) and adds cores {8} (2 fresh points).
func TestSweepOverlappingGridsDedup(t *testing.T) {
	rc := resultcache.New(resultcache.NewMemoryStore(0))

	first := smallJacobi([]int{2, 4}, []int{4, 16})
	first.Cache = rc.Scope()
	if _, err := KernelSweepCtx(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if st := first.Cache.Stats(); st.Hits != 0 || st.Computes != 4 {
		t.Fatalf("first sweep stats %v, want 4 computes, 0 hits", st)
	}

	second := smallJacobi([]int{4, 8}, []int{4, 16})
	second.Cache = rc.Scope()
	pts, err := KernelSweepCtx(context.Background(), second)
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
	off, err := KernelSweepCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, off) {
		t.Errorf("cached overlapping sweep differs from cache-off:\n%+v\nvs\n%+v", pts, off)
	}
}

// TestKernelSweepCacheByteIdentical extends the contract to the kernel
// sweep path: matmul and syncbench store under their own key domains and
// value encodings, so each kernel is exercised separately.
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
			if !reflect.DeepEqual(warm, off) {
				t.Errorf("warm sweep differs from cache-off:\n%+v\nvs\n%+v", warm, off)
			}
			if st := o.Cache.Stats(); st.Hits < uint64(len(off)) {
				t.Errorf("warm sweep hits = %d, want >= %d (%v)", st.Hits, len(off), st)
			}
		})
	}
}
