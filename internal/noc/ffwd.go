package noc

// Sleep, wake and checkpoint capabilities of the switches and the cmesh
// concentrator (see internal/sim/sched.go and internal/sim/snapshot.go for
// the engine-side contracts; the traffic nodes' pre-drawn gating lives in
// traffic.go).
//
// Every switch is a sim.Sleeper. Its input paths, each of which wakes it:
// the link registers it reads (declared consumers, NewRouterNetwork) and
// its local port (InjectWaker: the port wakes the switch whenever a flit
// becomes available to pull). What "nothing to do" means per router kind:
//
//   - Deflection and adaptive switches store nothing between cycles, so
//     with no flit on any input link and a local port that has nothing
//     queued they are fully passive: NoEvent.
//   - The XY switch is passive when its input queues are empty; its
//     round-robin pointer advances every cycle regardless, which Skipped
//     makes up for.
//   - The wormhole switch is passive when its buffers are empty. A
//     returned credit does not wake it: the credit is stamped with the
//     cycle it was returned on and folds at the switch's next Step, and
//     Skipped folds the ones the missed Steps would have, so a snapshot
//     of a sleeping switch equals one of a switch stepped every cycle.
//   - The concentrator is passive unless its output latch is occupied
//     (the switch must drain it) or an endpoint holds flits for it.

import (
	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
)

// pendingReporter is the optional LocalPort capability the switches' idle
// detection relies on beside InjectWaker: the current source-queue
// occupancy. Every port in the repository implements both; an attached
// port that lacks either (a test stub, say) keeps its switch awake — the
// scheduler silently degrades to plain ticking rather than risking an
// unserved injection.
type pendingReporter interface{ Pending() int }

// portIdle reports whether the local port provably has nothing to inject.
func portIdle(p LocalPort) bool {
	if p == nil {
		return true
	}
	pr, ok := p.(pendingReporter)
	return ok && pr.Pending() == 0
}

// NextEvent implements sim.NextEventer: buffered flits mean work every
// cycle; empty queues mean fully passive.
func (s *XYSwitch) NextEvent(now int64) int64 {
	if s.buffered > 0 || !s.localIdle() {
		return now
	}
	return sim.NoEvent
}

// Skipped implements sim.Skipper: Step advances the round-robin pointer
// unconditionally every cycle, including idle ones, so skipped cycles must
// advance it by exactly the same amount.
func (s *XYSwitch) Skipped(from, to int64) {
	nq := len(s.queues)
	s.rrStart = (s.rrStart + int((to-from)%int64(nq))) % nq
}

// xySnap is the checkpointed state of an XYSwitch.
type xySnap struct {
	queues   [NumPorts + 1]fifoSnap
	rrStart  int
	buffered int
	peakBuf  int
	stats    XYStats
}

// Snapshot implements sim.Checkpointable.
func (s *XYSwitch) Snapshot() any {
	snap := xySnap{rrStart: s.rrStart, buffered: s.buffered, peakBuf: s.peakBuf, stats: s.Stats}
	for q := range s.queues {
		snap.queues[q] = s.queues[q].Snapshot()
	}
	return snap
}

// Restore implements sim.Checkpointable.
func (s *XYSwitch) Restore(snap any) {
	sn := snap.(xySnap)
	for q := range s.queues {
		s.queues[q].Restore(sn.queues[q])
	}
	s.rrStart, s.buffered, s.peakBuf, s.Stats = sn.rrStart, sn.buffered, sn.peakBuf, sn.stats
}

// NextEvent implements sim.NextEventer: the wormhole switch acts whenever
// it holds flits (input buffers or injection queue).
func (s *WormholeSwitch) NextEvent(now int64) int64 {
	if s.buffered > 0 || !s.localIdle() {
		return now
	}
	return sim.NoEvent
}

// Skipped implements sim.Skipper: the Step of cycle to-1, the last one
// missed, would have folded the credits returned before it. Credits
// returned on to-1 itself stay owed, as they would have.
func (s *WormholeSwitch) Skipped(from, to int64) { s.collectCredits(to - 1) }

// whSnap is the checkpointed state of a WormholeSwitch.
type whSnap struct {
	bufs      [NumPorts][WormholeVCs]fifoSnap
	injQ      fifoSnap
	credits   [NumPorts][WormholeVCs]int
	pending   [NumPorts][WormholeVCs]int
	freshAt   int64
	owed      int
	buffered  int
	peakBuf   int
	minCredit int
	stats     WormholeStats
}

type fifoSnap = queue.Snap[flit.Flit]

// Snapshot implements sim.Checkpointable.
func (s *WormholeSwitch) Snapshot() any {
	snap := whSnap{
		credits: s.credits, pending: s.pending, freshAt: s.freshAt, owed: s.owed,
		buffered: s.buffered, peakBuf: s.peakBuf, minCredit: s.minCredit,
		stats: s.Stats,
		injQ:  s.injQ.Snapshot(),
	}
	for p := range s.bufs {
		for v := range s.bufs[p] {
			snap.bufs[p][v] = s.bufs[p][v].Snapshot()
		}
	}
	return snap
}

// Restore implements sim.Checkpointable.
func (s *WormholeSwitch) Restore(snap any) {
	sn := snap.(whSnap)
	for p := range s.bufs {
		for v := range s.bufs[p] {
			s.bufs[p][v].Restore(sn.bufs[p][v])
		}
	}
	s.injQ.Restore(sn.injQ)
	s.rebuildOcc()
	s.credits, s.pending, s.freshAt, s.owed = sn.credits, sn.pending, sn.freshAt, sn.owed
	s.buffered, s.peakBuf, s.minCredit = sn.buffered, sn.peakBuf, sn.minCredit
	s.Stats = sn.stats
}

// NextEvent implements sim.NextEventer: an occupied latch means the switch
// must step to drain it; an empty latch with idle endpoints means nothing
// to multiplex (endpoints holding flits report now themselves).
func (c *concentrator) NextEvent(now int64) int64 {
	if c.hasLatch || c.epWakes < len(c.eps) {
		return now
	}
	for _, ep := range c.eps {
		if !portIdle(ep) {
			return now
		}
	}
	return sim.NoEvent
}

// Pending implements the pendingReporter probe for the owning switch: the
// concentrator is the switch's local port on concentrated topologies, and
// its injectable backlog is the latch.
func (c *concentrator) Pending() int {
	if c.hasLatch {
		return 1
	}
	return 0
}

// concSnap is the checkpointed state of a concentrator.
type concSnap struct {
	rr          int
	latch       flit.Flit
	hasLatch    bool
	turnarounds int64
}

// Snapshot implements sim.Checkpointable.
func (c *concentrator) Snapshot() any {
	return concSnap{rr: c.rr, latch: c.latch, hasLatch: c.hasLatch, turnarounds: c.turnarounds}
}

// Restore implements sim.Checkpointable.
func (c *concentrator) Restore(snap any) {
	sn := snap.(concSnap)
	c.rr, c.latch, c.hasLatch, c.turnarounds = sn.rr, sn.latch, sn.hasLatch, sn.turnarounds
}
