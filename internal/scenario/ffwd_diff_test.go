package scenario

// The differential battery of the hot-path optimizations: idle
// fast-forward and warm-snapshot window forking are performance features
// with a zero-tolerance correctness contract — every example scenario
// must render byte-identically with fast-forward on and off, a forked
// window sweep must equal independent runs, and repeated forked runs must
// reproduce the same Merkle ledger root. The reference runs take
// fast-forward off through their context (sim.WithoutFastForward), so
// nothing here touches a setting another test could see.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// runPlain loads path fresh, runs it cache-off under ctx, and returns the
// rendered outputs plus the run ledger root.
func runPlain(t *testing.T, ctx context.Context, path string) (map[string]string, string) {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCtx(ctx, s)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return renderAll(t, results), MerkleRoot(results)
}

// TestFastForwardDifferentialGolden runs every example scenario with
// fast-forward enabled and disabled and requires byte-identical output in
// every format plus identical Merkle ledger roots.
func TestFastForwardDifferentialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every example scenario twice")
	}
	t.Parallel()
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenarios found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, wantRoot := runPlain(t, sim.WithoutFastForward(context.Background()), path)
			got, root := runPlain(t, context.Background(), path)
			for format, out := range got {
				if out != want[format] {
					t.Errorf("%s output differs under fast-forward:\n--- on ---\n%s--- off ---\n%s",
						format, out, want[format])
				}
			}
			if root != wantRoot {
				t.Errorf("merkle root %s under fast-forward, %s without", root, wantRoot)
			}
		})
	}
}

// windowScenario is a measure_windows sweep covering the stateful router
// kinds (wormhole credits, adaptive age-weighting) so forking has real
// state to snapshot.
func windowScenario(t *testing.T) *Scenario {
	t.Helper()
	s := &Scenario{
		Name:     "window-sweep",
		Workload: WorkloadNoC.String(),
		NoC: &NoCConfig{
			Width: 4, Height: 4,
			Patterns:       []string{"uniform", "transpose"},
			Routers:        []string{"deflection", "wormhole"},
			Rates:          []float64{0.05},
			WarmupCycles:   1_000,
			MeasureWindows: []int64{500, 1_500, 3_000},
		},
		Seeds: []int64{3},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWindowForkDifferential requires a measure_windows sweep to be
// byte-identical to independent simulation — the same scenario expanded
// into one plain measure_cycles scenario per window, each re-simulating
// its own warmup — and forked runs to be reproducible: forking the same
// warm snapshot twice must yield the same Merkle ledger root (the
// snapshot is not consumed or mutated).
func TestWindowForkDifferential(t *testing.T) {
	forked, err := RunCtx(context.Background(), windowScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunCtx(context.Background(), windowScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if MerkleRoot(forked) != MerkleRoot(again) {
		t.Errorf("two forked runs disagree: %s vs %s", MerkleRoot(forked), MerkleRoot(again))
	}

	// Windows are the innermost axis of the canonical order, so window wi
	// of tuple i sits at i*len(windows)+wi.
	windows := windowScenario(t).NoC.MeasureWindows
	independent := make([]Result, len(forked))
	for wi, w := range windows {
		single := windowScenario(t)
		single.NoC.MeasureWindows = nil
		single.NoC.MeasureCycles = w
		rows, err := RunCtx(context.Background(), single)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			independent[i*len(windows)+wi] = r
		}
	}
	wantOut := renderAll(t, independent)
	for format, out := range renderAll(t, forked) {
		if out != wantOut[format] {
			t.Errorf("%s output differs under window forking:\n--- forked ---\n%s--- independent ---\n%s",
				format, out, wantOut[format])
		}
	}
	if MerkleRoot(forked) != MerkleRoot(independent) {
		t.Errorf("merkle root %s forked, %s independent", MerkleRoot(forked), MerkleRoot(independent))
	}
}

// TestWindowCacheInterop pins the key design: a window point is cached
// under exactly the key of a plain measure_cycles point of that length,
// so a windows sweep fully warms the cache for the equivalent fixed-window
// scenarios (and vice versa).
func TestWindowCacheInterop(t *testing.T) {
	rc := resultcache.New(resultcache.NewMemoryStore(0))

	s := windowScenario(t)
	s.Cache = rc.Scope()
	forked, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Cache.Stats(); st.Hits != 0 || st.Computes == 0 {
		t.Fatalf("cold windows sweep stats %v, want all computes", st)
	}

	for wi, w := range []int64{500, 1_500, 3_000} {
		fixed := windowScenario(t)
		fixed.NoC.MeasureWindows = nil
		fixed.NoC.MeasureCycles = w
		if err := fixed.Validate(); err != nil {
			t.Fatal(err)
		}
		fixed.Cache = rc.Scope()
		got, err := RunCtx(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if st := fixed.Cache.Stats(); st.Computes != 0 || st.Hits != uint64(len(got)) {
			t.Errorf("window %d: fixed-window rerun stats %v, want pure hits", w, st)
		}
		// The recalled fixed-window rows must equal the windows sweep's
		// rows for this window length (every len(windows)-th row).
		for i, r := range got {
			if want := forked[i*3+wi]; r != want {
				t.Errorf("window %d point %d: %+v != windows-sweep row %+v", w, i, r, want)
			}
		}
	}
}
