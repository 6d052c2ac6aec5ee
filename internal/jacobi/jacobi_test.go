package jacobi

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/core"
)

func TestParseVariantRoundTrip(t *testing.T) {
	for _, v := range AllVariants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
		if got, err := ParseVariant("  " + strings.ToUpper(v.String()) + " "); err != nil || got != v {
			t.Errorf("ParseVariant upper(%q) = %v, %v", v, got, err)
		}
	}
	if got, err := ParseVariant("hybrid_sync"); err != nil || got != HybridSync {
		t.Errorf("ParseVariant(hybrid_sync) = %v, %v", got, err)
	}
	if got, err := ParseVariant("2"); err != nil || got != PureSM {
		t.Errorf("ParseVariant(2) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "mpi", "99", "-1"} {
		if _, err := ParseVariant(bad); err == nil {
			t.Errorf("ParseVariant(%q) accepted", bad)
		}
	}
	if len(VariantNames()) != 3 {
		t.Errorf("VariantNames = %v, want 3 variants", VariantNames())
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{N: 16, Warmup: 1, Measured: 1}).Validate(); err != nil {
		t.Error(err)
	}
	bad := []Spec{
		{N: 3, Warmup: 1, Measured: 1},
		{N: 16, Warmup: -1, Measured: 1},
		{N: 16, Warmup: 0, Measured: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestPartitionCoversInterior(t *testing.T) {
	for _, n := range []int{16, 30, 60} {
		for p := 1; p <= 15; p++ {
			blocks := Partition(n, p)
			if len(blocks) != p {
				t.Fatalf("n=%d p=%d: %d blocks", n, p, len(blocks))
			}
			row := 1
			totalRows := 0
			inactiveSeen := false
			for r, b := range blocks {
				if b.Rank != r {
					t.Fatalf("rank mismatch")
				}
				if b.Active() {
					if inactiveSeen {
						t.Fatalf("n=%d p=%d: active rank %d after inactive rank", n, p, r)
					}
					if b.Row0 != row {
						t.Fatalf("n=%d p=%d rank %d: row0=%d, want %d", n, p, r, b.Row0, row)
					}
					row += b.Rows
					totalRows += b.Rows
				} else {
					inactiveSeen = true
				}
			}
			if totalRows != n-2 {
				t.Fatalf("n=%d p=%d: %d rows covered, want %d", n, p, totalRows, n-2)
			}
		}
	}
}

// TestPartitionQuick property-tests partition invariants for arbitrary
// sizes.
func TestPartitionQuick(t *testing.T) {
	fn := func(nRaw, pRaw uint8) bool {
		n := 4 + int(nRaw)%100
		p := 1 + int(pRaw)%16
		blocks := Partition(n, p)
		total, row := 0, 1
		for _, b := range blocks {
			if b.Rows < 0 {
				return false
			}
			if b.Active() {
				if b.Row0 != row {
					return false
				}
				row += b.Rows
				total += b.Rows
			}
		}
		return total == n-2
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReferenceConverges(t *testing.T) {
	// After many iterations the interior approaches the harmonic solution;
	// sanity-check monotone smoothing: values bounded by boundary range.
	g := Reference(16, 200)
	for i := 1; i < 15; i++ {
		for j := 1; j < 15; j++ {
			if g[i][j] < 0 || g[i][j] > 100 {
				t.Fatalf("value out of harmonic bounds at (%d,%d): %v", i, j, g[i][j])
			}
		}
	}
	// The row adjacent to the hot boundary must have warmed up.
	if g[1][8] < 10 {
		t.Errorf("insufficient diffusion after 200 iterations: %v", g[1][8])
	}
}

func TestReferenceSymmetry(t *testing.T) {
	// The problem is symmetric about the vertical midline for even N.
	g := Reference(16, 50)
	for i := 1; i < 15; i++ {
		for j := 1; j < 8; j++ {
			a, b := g[i][j], g[i][15-j]
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("asymmetry at row %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	sys, err := core.Build(core.DefaultConfig(3, 8, cache.WriteBack))
	if err != nil {
		t.Fatal(err)
	}
	blocks := Partition(16, 3)
	l := NewLayout(sys.Map, 16, blocks[1])
	// All addresses 8-aligned, inside the rank's private segment, and
	// distinct across (buf,row,col).
	seen := map[uint32]bool{}
	for buf := 0; buf < 2; buf++ {
		for lr := 0; lr <= blocks[1].Rows+1; lr++ {
			for col := 0; col < 16; col++ {
				a := l.Addr(buf, lr, col)
				if a%8 != 0 {
					t.Fatalf("unaligned address %#x", a)
				}
				if seg, owner := sys.Map.Classify(a); seg.String() != "private" || owner != 1 {
					t.Fatalf("address %#x not in rank 1 private segment", a)
				}
				if seen[a] {
					t.Fatalf("address %#x reused", a)
				}
				seen[a] = true
			}
		}
	}
}

func TestLayoutGridRow(t *testing.T) {
	blocks := Partition(16, 3)
	sys, _ := core.Build(core.DefaultConfig(3, 8, cache.WriteBack))
	l := NewLayout(sys.Map, 16, blocks[1])
	if l.GridRow(0) != blocks[1].Row0-1 {
		t.Error("halo row maps wrong")
	}
	if l.GridRow(1) != blocks[1].Row0 {
		t.Error("first owned row maps wrong")
	}
}

func TestSharedSlotsDisjoint(t *testing.T) {
	sys, _ := core.Build(core.DefaultConfig(4, 8, cache.WriteBack))
	blocks := Partition(30, 4)
	l := NewLayout(sys.Map, 30, blocks[0])
	seen := map[uint32]bool{}
	for r := 0; r < 4; r++ {
		for col := 0; col < 30; col++ {
			for _, a := range []uint32{l.SharedTopSlot(r, col), l.SharedBottomSlot(r, col)} {
				if seen[a] {
					t.Fatalf("shared slot %#x reused", a)
				}
				seen[a] = true
			}
		}
	}
	// Barrier words live on separate lines beyond the slots.
	if l.BarrierCountAddr()/16 == l.BarrierSenseAddr()/16 {
		t.Error("barrier count and sense share a cache line")
	}
	if seen[l.BarrierCountAddr()] || seen[l.BarrierSenseAddr()] {
		t.Error("barrier words collide with boundary slots")
	}
}

// TestAllVariantsMatchReference is the central functional test: every
// variant, several core counts, both policies, bit-exact vs the sequential
// solver (Verify runs inside Run).
func TestAllVariantsMatchReference(t *testing.T) {
	for _, variant := range []Variant{HybridFull, HybridSync, PureSM} {
		for _, cores := range []int{1, 2, 5} {
			for _, pol := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
				cfg := core.DefaultConfig(cores, 4, pol)
				_, err := RunCtx(context.Background(), cfg, Spec{N: 16, Warmup: 1, Measured: 2}, variant)
				if err != nil {
					t.Errorf("%v cores=%d %v: %v", variant, cores, pol, err)
				}
			}
		}
	}
}

// TestMoreRanksThanRows covers the 16x16 grid on 15 cores: only 14
// interior rows exist, so one rank is inactive and must still participate
// in all synchronization.
func TestMoreRanksThanRows(t *testing.T) {
	cfg := core.DefaultConfig(15, 4, cache.WriteBack)
	for _, variant := range []Variant{HybridFull, HybridSync, PureSM} {
		if _, err := RunCtx(context.Background(), cfg, Spec{N: 16, Warmup: 1, Measured: 1}, variant); err != nil {
			t.Errorf("%v: %v", variant, err)
		}
	}
}

func TestSingleRowRanks(t *testing.T) {
	// 16x16 on 14 cores: every rank owns exactly one row, so each rank's
	// top row == bottom row (the aliasing edge case).
	cfg := core.DefaultConfig(14, 4, cache.WriteBack)
	if _, err := RunCtx(context.Background(), cfg, Spec{N: 16, Warmup: 1, Measured: 1}, HybridFull); err != nil {
		t.Error(err)
	}
}

func TestVariantStrings(t *testing.T) {
	if HybridFull.String() != "hybrid-full" || HybridSync.String() != "hybrid-sync" || PureSM.String() != "pure-sm" {
		t.Error("variant strings wrong")
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	cfg := core.DefaultConfig(2, 8, cache.WriteBack)
	if _, err := RunCtx(context.Background(), cfg, Spec{N: 2, Warmup: 1, Measured: 1}, HybridFull); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestHybridBeatsPureSM checks the headline qualitative claim on a small
// configuration: the full hybrid must be at least 1.5x faster than pure
// shared memory.
func TestHybridBeatsPureSM(t *testing.T) {
	spec := Spec{N: 30, Warmup: 1, Measured: 1}
	cfg := core.DefaultConfig(4, 16, cache.WriteBack)
	hy, err := RunCtx(context.Background(), cfg, spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := RunCtx(context.Background(), cfg, spec, PureSM)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(sm.CyclesPerIteration) / float64(hy.CyclesPerIteration)
	t.Logf("pure-SM / hybrid-full = %.2fx (hybrid %d, pure %d)", ratio, hy.CyclesPerIteration, sm.CyclesPerIteration)
	if ratio < 1.5 {
		t.Errorf("hybrid advantage %.2fx below 1.5x", ratio)
	}
}

// TestScalingWithCores checks that with ample cache the measured iteration
// time decreases when cores are added (Fig. 6's right-hand regime).
func TestScalingWithCores(t *testing.T) {
	spec := Spec{N: 30, Warmup: 1, Measured: 1}
	t4, err := RunCtx(context.Background(), core.DefaultConfig(4, 32, cache.WriteBack), spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := RunCtx(context.Background(), core.DefaultConfig(8, 32, cache.WriteBack), spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	if t8.CyclesPerIteration >= t4.CyclesPerIteration {
		t.Errorf("no scaling: 4 cores %d, 8 cores %d", t4.CyclesPerIteration, t8.CyclesPerIteration)
	}
}

// TestDeterministicResult verifies bit-identical cycle counts across runs.
func TestDeterministicResult(t *testing.T) {
	cfg := core.DefaultConfig(3, 8, cache.WriteBack)
	spec := Spec{N: 16, Warmup: 1, Measured: 1}
	a, err := RunCtx(context.Background(), cfg, spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), cfg, spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	if a.CyclesPerIteration != b.CyclesPerIteration || a.TotalCycles != b.TotalCycles || a.NoCFlits != b.NoCFlits {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestMultiMPMMU runs the full workload against two memory nodes; results
// must stay bit-exact and the second memory node must relieve the first.
func TestMultiMPMMU(t *testing.T) {
	spec := Spec{N: 30, Warmup: 1, Measured: 1}
	cfg1 := core.DefaultConfig(6, 8, cache.WriteBack)
	one, err := RunCtx(context.Background(), cfg1, spec, PureSM)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg1
	cfg2.NumMPMMUs = 2
	two, err := RunCtx(context.Background(), cfg2, spec, PureSM)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pure-SM 30x30 on 6 cores: 1 MPMMU %d cy/iter, 2 MPMMUs %d cy/iter",
		one.CyclesPerIteration, two.CyclesPerIteration)
	if two.CyclesPerIteration >= one.CyclesPerIteration {
		t.Errorf("second memory node did not help: %d -> %d",
			one.CyclesPerIteration, two.CyclesPerIteration)
	}
}
