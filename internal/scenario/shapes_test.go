package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The shape-regression tests assert the qualitative properties of the
// paper's figures (DESIGN.md §4 "shape criteria") on the rows of the
// shipped figure files, which runFigureFile runs once for these tests and
// TestFigsGolden together.

// jacobiCycles returns the cycles per iteration of the hybrid-full row of
// a figure file at one configuration.
func jacobiCycles(t *testing.T, file string, cores, kb int, policy string) int64 {
	t.Helper()
	_, results := runFigureFile(t, file)
	for _, r := range results {
		if r.Variant == "hybrid-full" && r.Cores == cores && r.CacheKB == kb && r.Policy == policy {
			return r.CyclesPerIter
		}
	}
	t.Fatalf("%s has no hybrid-full row at %d cores, %d kB %s", file, cores, kb, policy)
	return 0
}

// compareRowAt returns the T-1/T-2 row of a three-variant figure file at
// one core count.
func compareRowAt(t *testing.T, file string, cores int) compareRow {
	t.Helper()
	_, results := runFigureFile(t, file)
	for _, r := range compareRows(results) {
		if r.cores == cores {
			return r
		}
	}
	t.Fatalf("%s has no row at %d cores", file, cores)
	return compareRow{}
}

const (
	fig6File = "figures/fig6.json"         // 60x60, both policies
	fig8File = "scenarios/fig8-quick.json" // 30x30, write-back
	hybridT1 = "figures/hybrid.json"       // three variants, 16 kB
	syncT2   = "figures/sync.json"         // three variants, 2 kB
	k1File   = "scenarios/kernel-ablation.json"
)

// TestShapeFig6WriteThroughWorse: the WT policy must be substantially
// slower than WB once several cores generate store traffic.
func TestShapeFig6WriteThroughWorse(t *testing.T) {
	for _, cores := range []int{4, 10} {
		wb := jacobiCycles(t, fig6File, cores, 16, "WB")
		wt := jacobiCycles(t, fig6File, cores, 16, "WT")
		if wt < 2*wb {
			t.Errorf("%d cores: WT %d not >= 2x WB %d", cores, wt, wb)
		}
	}
}

// TestShapeFig6CacheKnee: with per-core data fitting in the cache (64 kB,
// Fig 6's largest), adding cores must keep reducing iteration time; with
// tiny caches the curve must be miss-dominated (no comparable scaling).
func TestShapeFig6CacheKnee(t *testing.T) {
	big4 := jacobiCycles(t, fig6File, 4, 64, "WB")
	big8 := jacobiCycles(t, fig6File, 8, 64, "WB")
	big12 := jacobiCycles(t, fig6File, 12, 64, "WB")
	if !(big12 < big8 && big8 < big4) {
		t.Errorf("no core scaling with ample cache: %d, %d, %d", big4, big8, big12)
	}
	small4 := jacobiCycles(t, fig6File, 4, 2, "WB")
	small12 := jacobiCycles(t, fig6File, 12, 2, "WB")
	// Miss-dominated: scaling must be far from the ~3x the big caches get.
	if float64(small4)/float64(small12) > 1.7 {
		t.Errorf("2 kB caches scale too well: %d -> %d", small4, small12)
	}
	// And the fitting cache must beat the tiny cache outright.
	if big12 >= small12 {
		t.Errorf("64 kB (%d) not faster than 2 kB (%d) at 12 cores", big12, small12)
	}
}

// TestShapeFig8KneeShifts: the 30x30 array is 4x smaller, so the cache
// size where scaling appears must be ~4x smaller than for 60x60 (4 kB vs
// 16 kB in the paper).
func TestShapeFig8KneeShifts(t *testing.T) {
	// At 8 cores, 4 kB must already fit the 30x30 per-core data (and so
	// perform close to 16 kB), while for 60x60 even 8 kB (Fig 6's size
	// below the knee) must not.
	small30 := jacobiCycles(t, fig8File, 8, 4, "WB")
	big30 := jacobiCycles(t, fig8File, 8, 16, "WB")
	if float64(small30) > 1.3*float64(big30) {
		t.Errorf("30x30 at 8 cores: 4 kB (%d) should be within 30%% of 16 kB (%d)", small30, big30)
	}
	small60 := jacobiCycles(t, fig6File, 8, 8, "WB")
	big60 := jacobiCycles(t, fig6File, 8, 16, "WB")
	if small60 < 2*big60 {
		t.Errorf("60x60 at 8 cores: 8 kB (%d) should be >= 2x slower than 16 kB (%d)", small60, big60)
	}
}

// TestShapeHybridAdvantage asserts T-1: hybrid >= ~2x pure-SM once the
// per-core data fits, and the gap grows with core count.
func TestShapeHybridAdvantage(t *testing.T) {
	at4, at10 := compareRowAt(t, hybridT1, 4), compareRowAt(t, hybridT1, 10)
	if at4.fullVsSM < 1.5 {
		t.Errorf("4 cores: hybrid advantage %.2fx < 1.5x", at4.fullVsSM)
	}
	if at10.fullVsSM < 3 {
		t.Errorf("10 cores: hybrid advantage %.2fx < 3x", at10.fullVsSM)
	}
	if at10.fullVsSM <= at4.fullVsSM {
		t.Errorf("hybrid advantage not growing with cores: %.2fx -> %.2fx", at4.fullVsSM, at10.fullVsSM)
	}
}

// TestShapeSyncOnlyTracksFullWhenMissBound asserts the first half of T-2:
// in the miss-dominated regime (2 kB) the sync-only hybrid is within
// ~2-20% of the full hybrid.
func TestShapeSyncOnlyTracksFullWhenMissBound(t *testing.T) {
	if r := compareRowAt(t, syncT2, 6).fullVsSync; r > 1.35 {
		t.Errorf("miss-bound full-vs-sync = %.2fx, want <= ~1.2x", r)
	}
}

// TestShapeParetoKnees asserts Figure 7's structure: a Pareto front whose
// speedup jumps when the per-core data first fits in cache, and the
// kill-rule knee the area model gives, which is the front's last point,
// the largest configuration swept (15P_8k$): every step up the front
// that the rule refuses is followed by one it takes.
func TestShapeParetoKnees(t *testing.T) {
	_, results := runFigureFile(t, fig6File)
	front := paretoFront(results)
	if len(front) < 4 {
		t.Fatalf("pareto front too small: %d points", len(front))
	}
	knee, _ := killRule(front)
	if k := front[knee]; knee != len(front)-1 || k.Cores != 15 || k.CacheKB != 8 {
		t.Errorf("kill-rule knee at %d of %d (%dP_%dk$), want the last point, 15P_8k$", knee, len(front), k.Cores, k.CacheKB)
	}
	if front[len(front)-1].Speedup < 10 {
		t.Errorf("max speedup %.1fx implausibly small", front[len(front)-1].Speedup)
	}
	// The front must contain a big jump (the cache-fit lower knee).
	jump := 0.0
	for i := 1; i < len(front); i++ {
		if r := front[i].Speedup / front[i-1].Speedup; r > jump {
			jump = r
		}
	}
	if jump < 1.5 {
		t.Errorf("no cache-fit knee on the front (max step %.2fx)", jump)
	}
}

// TestKernelAblationShapes asserts the K-1 scaling targets: the gap
// between pure shared memory and message passing widens with cores on
// every kernel, bare synchronization is where messages win most, and
// jacobi scales best. TestKernelAblationGolden asserts the per-point
// orderings on the same rows.
func TestKernelAblationShapes(t *testing.T) {
	s, results := runFigureFile(t, k1File)
	for _, k := range kernelWorkloadNames() {
		ratioAt := func(cores int) float64 {
			mp := ablationCycles(t, results, k, "hybrid-full", cores)
			sm := ablationCycles(t, results, k, "pure-sm", cores)
			return float64(sm) / float64(mp)
		}
		if ratioAt(12) <= ratioAt(2) {
			t.Errorf("%s: sm/mp ratio did not widen with cores (%.2f at 2 -> %.2f at 12)", k, ratioAt(2), ratioAt(12))
		}
	}

	adv := messagingAdvantage(results)
	if adv["syncbench"] <= adv["matmul"] {
		t.Errorf("syncbench advantage %.2f not above matmul %.2f (bare synchronization is where messages win most)",
			adv["syncbench"], adv["matmul"])
	}
	peak := peakSpeedup(results)
	if peak["jacobi"] <= peak["matmul"] {
		t.Errorf("jacobi peak speedup %.2f not above matmul %.2f", peak["jacobi"], peak["matmul"])
	}

	table := ablationTable(s.Kernel, results)
	for _, want := range []string{"K-1", "jacobi", "matmul", "syncbench", "pure-sm", "summary"} {
		if !strings.Contains(table, want) {
			t.Errorf("ablation table missing %q:\n%s", want, table)
		}
	}
}

// TestParetoKneeSensitivity scales each term of the area model by ½, ⅘,
// 5⁄4 and 2 and finds Figure 7's kill-rule knee again on the memoized
// Fig. 6 rows: nothing is simulated, only the areas change. (The speedups
// stand: every model's smallest configuration is still 2P_2k$, since the
// area grows with cores and with L1 size under any positive terms.) Each
// entry is the knee and its place on that model's front; REPRODUCING.md's
// sensitivity note is this table.
func TestParetoKneeSensitivity(t *testing.T) {
	_, results := runFigureFile(t, fig6File)
	factors := []float64{0.5, 0.8, 1.25, 2}
	for _, c := range []struct {
		term  string
		scale func(m *areaModel, x float64)
		knees [4]string // at ½, ⅘, 5⁄4, 2
	}{
		{"coreLogicMM2", func(m *areaModel, x float64) { m.coreLogicMM2 *= x },
			[4]string{"15P_8k$ 7/7", "15P_8k$ 8/8", "15P_8k$ 9/9", "12P_8k$ 8/9"}},
		{"nocOverhead", func(m *areaModel, x float64) { m.nocOverhead *= x },
			[4]string{"15P_8k$ 8/8", "15P_8k$ 8/8", "15P_8k$ 9/9", "15P_8k$ 9/9"}},
		{"cacheMM2PerKB", func(m *areaModel, x float64) { m.cacheMM2PerKB *= x },
			[4]string{"12P_8k$ 8/9", "15P_8k$ 9/9", "15P_8k$ 8/8", "15P_8k$ 7/7"}},
		{"mmuCacheKB", func(m *areaModel, x float64) { m.mmuCacheKB *= x },
			[4]string{"12P_8k$ 8/9", "15P_8k$ 9/9", "15P_8k$ 9/9", "15P_8k$ 9/9"}},
	} {
		for i, x := range factors {
			m := paperArea
			c.scale(&m, x)
			rows := slices.Clone(results)
			for j := range rows {
				rows[j].AreaMM2 = m.area(rows[j].Cores, rows[j].CacheKB)
			}
			front := paretoFront(rows)
			knee, _ := killRule(front)
			got := fmt.Sprintf("%dP_%dk$ %d/%d", front[knee].Cores, front[knee].CacheKB, knee+1, len(front))
			if got != c.knees[i] {
				t.Errorf("%s x %g: knee %s, recorded %s", c.term, x, got, c.knees[i])
			}
		}
	}
}
