package jacobi

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/core/coretest"
)

// TestFastForwardDifferential is the jacobi twin of the syncbench test of
// the same name, on the system's own counters: with wake-driven stepping
// on and off the run must take the same cycles, and every core and memory
// node must have counted the same events — across the programming
// models, the three arbiter modes (the single-FIFO arbiter's round-robin
// bit is the one piece of kernel-path state only Skipped keeps right) and
// one or two memory nodes.
func TestFastForwardDifferential(t *testing.T) {
	spec := Spec{N: 16, Warmup: 1, Measured: 1}
	for _, variant := range []Variant{HybridFull, HybridSync, PureSM} {
		for _, arb := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
			for _, mmus := range []int{1, 2} {
				cfg := core.DefaultConfig(6, 2, cache.WriteBack)
				cfg.Arbiter, cfg.NumMPMMUs = arb, mmus
				var got [2]coretest.Counters
				var res [2]Result
				for i, ffwd := range []bool{true, false} {
					var sys *core.System
					var err error
					res[i], err = RunCtx(context.Background(), cfg, spec, variant, WithSystemHook(func(s *core.System) error {
						sys = s
						s.Engine.SetFastForward(ffwd)
						return nil
					}))
					if err != nil {
						t.Fatalf("%v/%v/%d mmus ffwd=%v: %v", variant, arb, mmus, ffwd, err)
					}
					got[i] = coretest.CountersOf(sys)
				}
				if res[1].CyclesSkipped != 0 {
					t.Errorf("%v/%v/%d mmus: CyclesSkipped = %d with fast-forward disabled", variant, arb, mmus, res[1].CyclesSkipped)
				}
				res[0].CyclesSkipped = 0
				if res[0] != res[1] {
					t.Errorf("%v/%v/%d mmus: results diverge:\n  on:  %+v\n  off: %+v", variant, arb, mmus, res[0], res[1])
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Errorf("%v/%v/%d mmus: counters diverge:\n  on:  %+v\n  off: %+v", variant, arb, mmus, got[0], got[1])
				}
			}
		}
	}
}
