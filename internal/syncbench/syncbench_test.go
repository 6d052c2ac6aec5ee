package syncbench

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// measure runs on the package's reference configuration: 8 kB write-back
// L1s.
func measure(kind Kind, cores, rounds int) (Result, error) {
	return MeasureWithCtx(context.Background(), kind, core.DefaultConfig(cores, 8, cache.WriteBack), rounds)
}

func TestMessageBarrierLatency(t *testing.T) {
	res, err := measure(MessageBarrier, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesPerRound <= 0 || res.CyclesPerRound > 5000 {
		t.Errorf("implausible barrier cost: %d", res.CyclesPerRound)
	}
	if res.MPMMUBusy != 0 {
		t.Errorf("message barrier touched the memory node (%d busy cycles)", res.MPMMUBusy)
	}
	if res.NoCFlits == 0 {
		t.Error("message barrier produced no flits")
	}
}

func TestLockBarrierLatency(t *testing.T) {
	res, err := measure(LockBarrier, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesPerRound <= 0 {
		t.Fatalf("bad cost %d", res.CyclesPerRound)
	}
	if res.MPMMUBusy == 0 {
		t.Error("lock barrier never occupied the memory node")
	}
}

// TestMessageBarrierCheaper asserts the paper's central premise: explicit
// token exchange beats synchronization through the memory hierarchy.
func TestMessageBarrierCheaper(t *testing.T) {
	for _, cores := range []int{4, 8} {
		msg, err := measure(MessageBarrier, cores, 10)
		if err != nil {
			t.Fatal(err)
		}
		lck, err := measure(LockBarrier, cores, 10)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d cores: empi %d cy, lock %d cy (%.2fx)",
			cores, msg.CyclesPerRound, lck.CyclesPerRound,
			float64(lck.CyclesPerRound)/float64(msg.CyclesPerRound))
		if lck.CyclesPerRound <= msg.CyclesPerRound {
			t.Errorf("%d cores: lock barrier (%d) not slower than message barrier (%d)",
				cores, lck.CyclesPerRound, msg.CyclesPerRound)
		}
	}
}

// TestBarrierScaling: both barriers grow with core count, the lock-based
// one faster (serialized arrivals at the memory node).
func TestBarrierScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	m4, _ := measure(MessageBarrier, 4, 10)
	m12, _ := measure(MessageBarrier, 12, 10)
	l4, _ := measure(LockBarrier, 4, 10)
	l12, _ := measure(LockBarrier, 12, 10)
	if m12.CyclesPerRound <= m4.CyclesPerRound {
		t.Errorf("message barrier did not grow with cores: %d -> %d", m4.CyclesPerRound, m12.CyclesPerRound)
	}
	if l12.CyclesPerRound <= l4.CyclesPerRound {
		t.Errorf("lock barrier did not grow with cores: %d -> %d", l4.CyclesPerRound, l12.CyclesPerRound)
	}
	growM := float64(m12.CyclesPerRound) / float64(m4.CyclesPerRound)
	growL := float64(l12.CyclesPerRound) / float64(l4.CyclesPerRound)
	t.Logf("growth 4->12 cores: empi %.2fx, lock %.2fx", growM, growL)
}

func TestFlagSignal(t *testing.T) {
	res, err := measure(FlagSignal, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesPerRound <= 0 {
		t.Fatal("bad flag-signal cost")
	}
	t.Logf("uncached flag round trip: %d cycles", res.CyclesPerRound)
}

func TestMeasureValidation(t *testing.T) {
	if _, err := measure(FlagSignal, 1, 5); err == nil {
		t.Error("flag signal with one core accepted")
	}
	if _, err := measure(MessageBarrier, 2, 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestMeasureWithMatchesMeasure: MeasureWithCtx honours a cache
// configuration other than the reference one the rest of this file uses.
func TestMeasureWithMatchesMeasure(t *testing.T) {
	if _, err := MeasureWithCtx(context.Background(), LockBarrier, core.DefaultConfig(4, 16, cache.WriteThrough), 5); err != nil {
		t.Errorf("MeasureWithCtx rejected a non-reference configuration: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{MessageBarrier, LockBarrier, FlagSignal} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := measure(MessageBarrier, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(MessageBarrier, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.CyclesPerRound != b.CyclesPerRound || a.NoCFlits != b.NoCFlits {
		t.Fatal("non-deterministic measurement")
	}
}
