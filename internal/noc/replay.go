package noc

import (
	"context"
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
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
// injections from an RNG it injects its endpoint's recorded events at
// their recorded cycles. On the fabric the trace was recorded on this
// reproduces the source run's flit stream exactly — same cycles, same
// destinations, same per-node packet-id sequences — so every measured
// statistic matches the source run (the record/replay differential tests
// assert byte-identity). The pre-scheduled events give NextEvent exact
// bounds, so a replay node sleeps from one recorded injection to the next.
type replayNode struct {
	id     int
	topo   Topology
	events []ReplayEvent // this endpoint's events, cycle-ordered
	next   int
	outQ   *queue.FIFO[flit.Flit]
	now    int64
	pktID  uint64

	portWakes // the schedule is the node's only input
}

// newReplayNode creates the replay source/sink for endpoint id. The
// source queue is unbounded: the recorded schedule already reflects the
// source run's throttling, and a cross-fabric replay may need more
// in-queue slack than the recording fabric did.
func newReplayNode(id int, topo Topology, events []ReplayEvent) *replayNode {
	return &replayNode{id: id, topo: topo, events: events, outQ: queue.NewFIFO[flit.Flit](0)}
}

// Name implements sim.Component.
func (r *replayNode) Name() string { return fmt.Sprintf("replay(%d)", r.id) }

// Step implements sim.Component: inject every event scheduled for this
// cycle. The flit fields mirror TrafficNode.Step exactly (same Src
// truncation, same per-node packet-id sequence) so a same-fabric replay
// is indistinguishable from its source run.
func (r *replayNode) Step(now int64) {
	r.now = now
	for r.next < len(r.events) && r.events[r.next].Cycle == now {
		ev := r.events[r.next]
		r.next++
		dx, dy := r.topo.EndpointCoord(ev.Dst)
		r.pktID++
		f := flit.Flit{
			DstX: uint8(dx), DstY: uint8(dy),
			Type: flit.Message, Sub: flit.SubMsgData,
			Src:  uint8(r.id & flit.MaxSrc),
			Data: ev.Meta,
		}
		if ev.Req {
			f.Sub = flit.SubMsgReq
		}
		f.Meta.InjectCycle = now
		f.Meta.PacketID = uint64(r.id)<<40 | r.pktID
		r.outQ.Push(f)
		r.puller.Wake()
	}
	if r.outQ.Len() == 0 {
		r.wake.Idle()
	}
}

// TryPull implements LocalPort.
func (r *replayNode) TryPull() (flit.Flit, bool) { return r.outQ.Pop() }

// Deliver implements LocalPort (the network tallies delivery stats).
func (r *replayNode) Deliver(flit.Flit, int64) {}

// Pending returns the current source-queue occupancy.
func (r *replayNode) Pending() int { return r.outQ.Len() }

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
