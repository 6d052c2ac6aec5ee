package syncbench

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestFastForwardDifferential runs every synchronization kernel with idle
// fast-forward on and off and requires bit-identical measurements: the
// optimization must be invisible in everything except the CyclesSkipped
// performance counter, which must actually fire (these kernels alternate
// compute skew and waiting, the exact shape fast-forward targets).
func TestFastForwardDifferential(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{MessageBarrier, LockBarrier, FlagSignal} {
		cfg := core.DefaultConfig(4, 8, cache.WriteBack)

		on, err := MeasureWithCtx(context.Background(), kind, cfg, 8)
		if err != nil {
			t.Fatalf("%v with fast-forward: %v", kind, err)
		}
		off, err := MeasureWithCtx(sim.WithoutFastForward(context.Background()), kind, cfg, 8)
		if err != nil {
			t.Fatalf("%v without fast-forward: %v", kind, err)
		}

		if off.CyclesSkipped != 0 {
			t.Errorf("%v: CyclesSkipped = %d with fast-forward disabled", kind, off.CyclesSkipped)
		}
		if on.CyclesSkipped <= 0 {
			t.Errorf("%v: fast-forward never engaged (CyclesSkipped = 0)", kind)
		}
		on.CyclesSkipped, off.CyclesSkipped = 0, 0
		if on != off {
			t.Errorf("%v: results diverge under fast-forward:\n  on:  %+v\n  off: %+v", kind, on, off)
		}
	}
}
