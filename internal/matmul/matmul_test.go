package matmul

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{N: 16}).Validate(); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, 1, 65} {
		if err := (Spec{N: n}).Validate(); err == nil {
			t.Errorf("N=%d accepted", n)
		}
	}
}

func TestPartitionCoversAllRows(t *testing.T) {
	for n := 2; n <= 32; n += 3 {
		for p := 1; p <= 15; p++ {
			blocks := Partition(n, p)
			total, row := 0, 0
			for _, b := range blocks {
				if b.Active() {
					if b.Row0 != row {
						t.Fatalf("n=%d p=%d: gap before rank %d", n, p, b.Rank)
					}
					row += b.Rows
					total += b.Rows
				}
			}
			if total != n {
				t.Fatalf("n=%d p=%d: covered %d rows", n, p, total)
			}
		}
	}
}

func TestReferenceKnownValue(t *testing.T) {
	// Hand-check one element for N=2:
	// A = [[0.25, 0.5], [0.5, 1.0]], B = [[0.5, 1.0], [-0.5, 0.0]]
	a, b := InitA(2), InitB(2)
	want := a[0][0]*b[0][1] + a[0][1]*b[1][1]
	ref := Reference(2)
	if ref[0][1] != want {
		t.Fatalf("ref[0][1] = %v, want %v", ref[0][1], want)
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	sys, err := core.Build(core.DefaultConfig(3, 8, cache.WriteBack))
	if err != nil {
		t.Fatal(err)
	}
	blocks := Partition(12, 3)
	l := NewLayout(sys.Map, 12, blocks[1])
	seen := map[uint32]string{}
	check := func(addr uint32, what string) {
		if prev, ok := seen[addr]; ok {
			t.Fatalf("%s address %#x collides with %s", what, addr, prev)
		}
		seen[addr] = what
	}
	for lr := 0; lr < blocks[1].Rows; lr++ {
		for c := 0; c < 12; c++ {
			check(l.AAddr(lr, c), "A")
			check(l.CAddr(lr, c), "C")
		}
	}
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			check(l.BAddr(r, c), "B")
		}
	}
}

// TestAllVariantsMatchReference verifies the product bit-exact for all
// three variants across core counts, including inactive ranks (P > N).
func TestAllVariantsMatchReference(t *testing.T) {
	for _, variant := range []Variant{HybridFull, HybridSync, PureSM} {
		for _, cores := range []int{1, 3, 6} {
			cfg := core.DefaultConfig(cores, 8, cache.WriteBack)
			if _, err := RunCtx(context.Background(), cfg, Spec{N: 12}, variant); err != nil {
				t.Errorf("%v cores=%d: %v", variant, cores, err)
			}
		}
	}
}

func TestMoreRanksThanRows(t *testing.T) {
	cfg := core.DefaultConfig(15, 4, cache.WriteBack)
	if _, err := RunCtx(context.Background(), cfg, Spec{N: 8}, HybridFull); err != nil {
		t.Error(err)
	}
}

// TestBroadcastBeatsSharedMemoryReads asserts the bandwidth claim: with
// several cores, distributing B over the message path must be faster than
// every core reading it through the single memory node.
func TestBroadcastBeatsSharedMemoryReads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := core.DefaultConfig(8, 16, cache.WriteBack)
	spec := Spec{N: 24}
	hy, err := RunCtx(context.Background(), cfg, spec, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := RunCtx(context.Background(), cfg, spec, PureSM)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("B transfer: message broadcast %d cy vs shared-memory reads %d cy (%.2fx)",
		hy.TransferCycles, sm.TransferCycles,
		float64(sm.TransferCycles)/float64(hy.TransferCycles))
	if hy.TransferCycles >= sm.TransferCycles {
		t.Errorf("broadcast (%d) not faster than shared-memory reads (%d)",
			hy.TransferCycles, sm.TransferCycles)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := core.DefaultConfig(4, 8, cache.WriteBack)
	a, err := RunCtx(context.Background(), cfg, Spec{N: 12}, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), cfg, Spec{N: 12}, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || a.NoCFlits != b.NoCFlits {
		t.Fatal("non-deterministic matmul run")
	}
}
