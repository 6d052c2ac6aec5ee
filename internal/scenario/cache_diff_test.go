package scenario

// The differential battery of the result cache: for every shipped example
// scenario, running cache-off, memory-cached (cold and warm) and
// disk-cached (cold and warm) must render byte-identically in every
// output format, and the warm reruns must be pure hits. This is the
// ground truth the cache's existence rests on — a cache that changes even
// one byte of output is a correctness bug, not a performance feature.

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/resultcache"
)

// renderAll renders results in every format, keyed by format name.
func renderAll(t *testing.T, results []Result) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, format := range []string{FormatTable, FormatCSV, FormatJSON} {
		s, err := Render(results, format)
		if err != nil {
			t.Fatalf("render %s: %v", format, err)
		}
		out[format] = s
	}
	return out
}

// runScoped loads path fresh, attaches a scope of rc (nil = cache off),
// runs it, and returns the rendered outputs, the run ledger root and the
// scope's cache stats.
func runScoped(t *testing.T, path string, rc *resultcache.Cache) (map[string]string, string, resultcache.Stats) {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	scope := rc.Scope()
	s.Cache = scope
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return renderAll(t, results), MerkleRoot(results), scope.Stats()
}

// TestCacheDifferentialGolden runs every example scenario through five
// cache modes and asserts byte-identical output in all three formats,
// identical Merkle ledger roots, and pure-hit warm reruns.
func TestCacheDifferentialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every example scenario five times")
	}
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
			t.Parallel()
			want, wantRoot, _ := runScoped(t, path, nil)

			mem := resultcache.New(resultcache.NewMemoryStore(0))
			disk, err := resultcache.Open(resultcache.BackendDisk, t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			modes := []struct {
				name string
				rc   *resultcache.Cache
				warm bool // second pass over an already-populated store
			}{
				{"mem-cold", mem, false},
				{"mem-warm", mem, true},
				{"disk-cold", disk, false},
				{"disk-warm", disk, true},
			}
			for _, m := range modes {
				got, root, st := runScoped(t, path, m.rc)
				for format, out := range got {
					if out != want[format] {
						t.Errorf("%s %s output differs from cache-off:\n--- %s ---\n%s--- off ---\n%s",
							m.name, format, m.name, out, want[format])
					}
				}
				if root != wantRoot {
					t.Errorf("%s merkle root %s, cache-off %s", m.name, root, wantRoot)
				}
				if m.warm {
					if st.Computes != 0 {
						t.Errorf("%s recomputed %d points; want pure hits (%v)", m.name, st.Computes, st)
					}
					if st.Hits == 0 {
						t.Errorf("%s had no hits (%v)", m.name, st)
					}
				} else if st.Hits != 0 {
					t.Errorf("%s hit a cold store (%v)", m.name, st)
				}
			}
		})
	}
}

// TestCacheWarmSpeedup pins the acceptance bar: a warm fig8-quick rerun
// must be at least 5x faster than the cache-off run (in practice it is
// thousands of times faster — the threshold is generous so the test
// never flakes on CI noise).
func TestCacheWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full fig8-quick sweeps")
	}
	const path = "../../examples/scenarios/fig8-quick.json"

	start := time.Now()
	want, _, _ := runScoped(t, path, nil)
	coldDur := time.Since(start)

	mem := resultcache.New(resultcache.NewMemoryStore(0))
	runScoped(t, path, mem) // populate

	start = time.Now()
	got, _, st := runScoped(t, path, mem)
	warmDur := time.Since(start)

	if got[FormatCSV] != want[FormatCSV] {
		t.Fatal("warm-cache output differs from cache-off output")
	}
	if st.Computes != 0 {
		t.Fatalf("warm rerun recomputed %d points", st.Computes)
	}
	if warmDur*5 > coldDur {
		t.Errorf("warm rerun %v vs cache-off %v: less than 5x faster", warmDur, coldDur)
	}
	t.Logf("cache-off %v, warm %v (%.0fx), stats %v",
		coldDur.Round(time.Millisecond), warmDur, float64(coldDur)/float64(warmDur), st)
}
