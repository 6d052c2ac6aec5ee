package matmul

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/core/coretest"
)

// TestFastForwardDifferential is the matmul twin of the syncbench test of
// the same name, on the system's own counters: with wake-driven stepping
// on and off the run must take the same cycles, and every core and memory
// node must have counted the same events, in every programming model and
// arbiter mode (the single-FIFO arbiter's round-robin bit is the one
// piece of kernel-path state only Skipped keeps right).
func TestFastForwardDifferential(t *testing.T) {
	for _, variant := range []Variant{HybridFull, HybridSync, PureSM} {
		for _, arb := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
			cfg := core.DefaultConfig(5, 2, cache.WriteBack)
			cfg.Arbiter = arb
			var got [2]coretest.Counters
			var res [2]Result
			for i, ffwd := range []bool{true, false} {
				sys, err := core.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sys.Engine.SetFastForward(ffwd)
				if res[i], err = RunOn(context.Background(), sys, Spec{N: 12}, variant); err != nil {
					t.Fatalf("%v/%v ffwd=%v: %v", variant, arb, ffwd, err)
				}
				got[i] = coretest.CountersOf(sys)
			}
			if res[1].CyclesSkipped != 0 {
				t.Errorf("%v/%v: CyclesSkipped = %d with fast-forward disabled", variant, arb, res[1].CyclesSkipped)
			}
			res[0].CyclesSkipped = 0
			if res[0] != res[1] {
				t.Errorf("%v/%v: results diverge:\n  on:  %+v\n  off: %+v", variant, arb, res[0], res[1])
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%v/%v: counters diverge:\n  on:  %+v\n  off: %+v", variant, arb, got[0], got[1])
			}
		}
	}
}
