package matmul

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
)

// counters is everything a kernel run leaves behind that sleeping could
// get wrong without moving the verified product: the run length, every
// core's event and stall counts, every memory node's busy cycles.
type counters struct {
	Cycles int64
	Procs  []pe.Stats
	Busy   []int64
}

func countersOf(sys *core.System) counters {
	c := counters{Cycles: sys.Cycles()}
	for _, p := range sys.Procs {
		c.Procs = append(c.Procs, p.Stats)
	}
	for _, u := range sys.MMUs {
		c.Busy = append(c.Busy, u.Stats.BusyCycles.Value())
	}
	return c
}

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
			var got [2]counters
			var res [2]Result
			for i, ffwd := range []bool{true, false} {
				sys, err := core.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sys.Engine.SetFastForward(ffwd)
				if res[i], err = runOn(context.Background(), sys, Spec{N: 12}, variant); err != nil {
					t.Fatalf("%v/%v ffwd=%v: %v", variant, arb, ffwd, err)
				}
				got[i] = countersOf(sys)
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
