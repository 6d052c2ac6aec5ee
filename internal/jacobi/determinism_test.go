package jacobi

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestDeterminismGolden locks in the engine's determinism contract across
// hot-path changes (dirty-list commit, ring-buffer FIFOs): a mid-size
// configuration must produce identical cycle counts on repeated runs, and
// the count must match the golden value committed to testdata, which was
// recorded before the dirty-commit rework. Any drift here means the
// optimization changed simulated behaviour, not just its speed.
func TestDeterminismGolden(t *testing.T) {
	cfg := core.DefaultConfig(6, 8, cache.WriteBack)
	spec := Spec{N: 30, Warmup: 1, Measured: 2}

	run := func() Result {
		res, err := RunCtx(context.Background(), cfg, spec, HybridFull)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles || a.CyclesPerIteration != b.CyclesPerIteration {
		t.Fatalf("two identical runs diverged: %d/%d cycles vs %d/%d",
			a.TotalCycles, a.CyclesPerIteration, b.TotalCycles, b.CyclesPerIteration)
	}

	raw, err := os.ReadFile("testdata/determinism_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	if a.TotalCycles != want {
		t.Errorf("TotalCycles = %d, golden = %d: simulated behaviour changed", a.TotalCycles, want)
	}
}
