package noc

import (
	"context"
	"fmt"

	"repro/internal/flit"
	"repro/internal/sim"
)

// ReplayEvent is one pre-scheduled injection for a replay run (one
// decoded trace event; the scenario runner converts). Events are given in
// nondecreasing Cycle order with Src/Dst on the replay fabric's endpoint
// grid — MeasureReplayCtx validates both.
type ReplayEvent struct {
	Cycle int64
	Src   int
	Dst   int
	// Meta becomes the replayed flit's data word.
	Meta uint32
	// Req marks a request-class event (a recorded eMPI message send);
	// injection events replay as data-class flits, exactly as their
	// source run injected them.
	Req bool
}

// ReplayConfig parameterizes one trace-replay measurement: the recorded
// event schedule pushed through a chosen router, over the recorded
// warmup/measure horizon.
type ReplayConfig struct {
	Router  RouterKind
	Events  []ReplayEvent
	Warmup  int64
	Measure int64
}

// replayNode is the replaying TrafficNode-analogue: instead of drawing
// injections from an RNG it emits its endpoint's recorded events at their
// recorded cycles, so on the recording fabric every measured statistic
// matches the source run (the record/replay differential tests assert
// byte-identity). The pre-scheduled events give NextEvent exact bounds,
// so a replay node sleeps from one recorded injection to the next.
type replayNode struct {
	events []ReplayEvent // this endpoint's events, cycle-ordered
	next   int

	source // the schedule is the node's only input
}

// newReplayNode creates the replay source/sink for endpoint id. The
// source queue is unbounded: the recorded schedule already reflects the
// source run's throttling, and a cross-fabric replay may need more
// in-queue slack than the recording fabric did.
func newReplayNode(id int, topo Topology, events []ReplayEvent) *replayNode {
	return &replayNode{events: events, source: newSource(id, topo, 0)}
}

// Name implements sim.Component.
func (r *replayNode) Name() string { return fmt.Sprintf("replay(%d)", r.id) }

// Step implements sim.Component: emit every event scheduled for this
// cycle, through the same source.emit as TrafficNode.Step's.
func (r *replayNode) Step(now int64) {
	for r.next < len(r.events) && r.events[r.next].Cycle == now {
		ev := r.events[r.next]
		r.next++
		sub := flit.SubMsgData
		if ev.Req {
			sub = flit.SubMsgReq
		}
		r.emit(ev.Dst, sub, ev.Meta, now)
	}
	if r.outQ.Len() == 0 {
		r.wake.Idle()
	}
}

// Deliver implements LocalPort (the network tallies delivery stats).
func (r *replayNode) Deliver(*flit.Flit, int64) {}

// NextEvent implements sim.NextEventer. The schedule is known ahead of
// time, so the bound is exact: the engine can jump straight to the next
// recorded injection whenever the fabric is quiet.
func (r *replayNode) NextEvent(now int64) int64 {
	if r.outQ.Len() > 0 {
		return now
	}
	if r.next < len(r.events) {
		return r.events[r.next].Cycle
	}
	return sim.NoEvent
}

// MeasureReplayCtx replays a recorded event schedule through one
// (topology, router) point and measures the recorded window, through the
// same window accounting as MeasureCtx. Events outside the fabric's
// endpoint grid are rejected (a decoded trace is pre-validated against
// its own grid; this guards hand-built schedules and cross-fabric
// mismatches).
func MeasureReplayCtx(ctx context.Context, topo Topology, rc ReplayConfig) (Measurement, error) {
	if rc.Measure <= 0 {
		return Measurement{}, fmt.Errorf("noc: replay measure window must be positive, got %d", rc.Measure)
	}
	n := topo.NumEndpoints()
	per := make([][]ReplayEvent, n)
	for _, ev := range rc.Events {
		if ev.Src < 0 || ev.Src >= n || ev.Dst < 0 || ev.Dst >= n {
			return Measurement{}, fmt.Errorf("noc: replay event endpoints (%d->%d) outside the %d-endpoint fabric", ev.Src, ev.Dst, n)
		}
		per[ev.Src] = append(per[ev.Src], ev)
	}
	rig, err := newRig(ctx, topo, rc.Router, rc.Warmup, func(i int) (LocalPort, sim.Component) {
		rn := newReplayNode(i, topo, per[i])
		return rn, rn
	})
	if err != nil {
		return Measurement{}, err
	}
	return rig.window(ctx, topo, rc.Measure)
}
