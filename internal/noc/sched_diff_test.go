package noc

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestWakeDrivenStateDifferential is the state-level oracle for the
// scheduler, stronger than comparing final measurements: two identical
// bare-network rigs, one stepping every component every cycle and one
// wake-driven, advance in lockstep, and every 64 cycles their complete
// simulated state — clock, every link register, every switch, crossbar
// and traffic source, the network-wide statistics — must be equal. A
// component that slept through a cycle on which it would have done
// something, or a Skipped that owes a cycle too many, shows up at the
// first checkpoint after it happens, with the cycle and the rig named,
// instead of as a latency figure off in the third decimal 5000 cycles
// later. Inputs are restricted to three loads that hold the scheduler in
// its three regimes: almost everything asleep, sources and switches
// waking each other constantly, nothing ever idle.
func TestWakeDrivenStateDifferential(t *testing.T) {
	const (
		stride      = 64
		checkpoints = 100
	)
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		topo, err := NewTopologyOfKind(kind, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range AllRouters() {
			for _, rate := range []float64{0.002, 0.05, 0.4} {
				name := fmt.Sprintf("%v/%v/load-%g", kind, router, rate)
				mc := MeasureConfig{Router: router, Traffic: TrafficConfig{Pattern: Uniform, Rate: rate}, Seed: 11}
				all, woken := mustRig(t, topo, mc), mustRig(t, topo, mc)
				all.e.SetFastForward(false)
				woken.e.SetFastForward(true)
				for i := 1; i <= checkpoints; i++ {
					all.e.Run(stride)
					woken.e.Run(stride)
					sa, err := all.e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					sw, err := woken.e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !sa.SameState(sw) || !reflect.DeepEqual(all.n.Stats, woken.n.Stats) {
						t.Errorf("%s: state diverges from the always-step rig by cycle %d", name, i*stride)
						break
					}
				}
				if all.e.CyclesSkipped() != 0 {
					t.Errorf("%s: the always-step rig skipped %d cycles", name, all.e.CyclesSkipped())
				}
				if rate == 0.002 && woken.e.CyclesSkipped() == 0 {
					t.Errorf("%s: the wake-driven rig never jumped at near-idle load", name)
				}
				if all.n.Stats.Delivered.Value() == 0 {
					t.Errorf("%s: no flit delivered; the load is degenerate", name)
				}
			}
		}
	}
}

// mustRig builds an unwarmed traffic rig (the configurations here have no
// warmup), so the caller can set its stepping mode before the first cycle.
func mustRig(t *testing.T, topo Topology, mc MeasureConfig) *measureRig {
	t.Helper()
	r, err := (*Schedules)(nil).newTrafficRig(context.Background(), topo, mc, mc.Warmup+mc.Measure)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
