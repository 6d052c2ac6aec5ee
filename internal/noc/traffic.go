package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern selects a synthetic traffic destination distribution.
type Pattern int

// Synthetic traffic patterns used to characterize the bare network.
const (
	// Uniform sends each flit to a uniformly random other node.
	Uniform Pattern = iota
	// Transpose sends from (x, y) to (y, x); classic adversarial pattern
	// for dimension-ordered routing.
	Transpose
	// Hotspot sends all traffic to one node, modelling the MPMMU's
	// position as the single shared-memory target.
	Hotspot
	// Neighbor sends to the east neighbour, modelling nearest-neighbour
	// halo exchange.
	Neighbor
	// BitComplement sends from (x, y) to (W-1-x, H-1-y): every flit
	// crosses the bisection, the classic worst case for torus bandwidth.
	BitComplement
	// BitReversal sends node i to the node whose id is i's bit pattern
	// reversed. Requires a power-of-two node count.
	BitReversal
	// Shuffle sends node i to rotate-left(i, 1) over log2(N) bits (the
	// perfect-shuffle permutation). Requires a power-of-two node count.
	Shuffle
	// Tornado sends (x, y) to (x + ceil(W/2) - 1, y + ceil(H/2) - 1),
	// wrapping: traffic chases itself half-way around each ring, the
	// adversarial case for minimal adaptive routing on tori.
	Tornado

	// numPatterns counts the defined patterns (keep it last).
	numPatterns
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case Hotspot:
		return "hotspot"
	case Neighbor:
		return "neighbor"
	case BitComplement:
		return "bit-complement"
	case BitReversal:
		return "bit-reversal"
	case Shuffle:
		return "shuffle"
	case Tornado:
		return "tornado"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// InjectionRecorder observes every injection a traffic source's queue
// accepts (trace capture; internal/trace.Trace implements it). The
// recorder is called on the engine thread, after the injection decision
// is final — post gating, post throttle, post the self-destination skip —
// so it sees exactly the flits the network sees and never perturbs the
// run it observes.
type InjectionRecorder interface {
	RecordInjection(cycle int64, src, dst int, meta uint32)
}

// TrafficConfig parameterizes a synthetic traffic node.
type TrafficConfig struct {
	Pattern Pattern
	// Rate is the per-node injection probability per cycle (offered load
	// in flits/node/cycle).
	Rate float64
	// HotspotNode is the destination for the Hotspot pattern.
	HotspotNode int
	// QueueCap bounds the source queue; when full the generator throttles
	// (counts a stall instead of queueing), like a real injection FIFO.
	QueueCap int
	// Burst, when non-nil, gates injection through a two-state on/off
	// modulator: the node injects at Rate only while the modulator is in
	// its on state. Composable with every Pattern.
	Burst *BurstConfig
	// Record, when non-nil, receives every accepted injection. Purely
	// observational: results are byte-identical with or without it.
	Record InjectionRecorder
}

// TrafficNode is a synthetic traffic source/sink implementing LocalPort.
// It is also a sim.Component (register it in sim.PhaseNode).
type TrafficNode struct {
	id    int
	topo  Topology
	cfg   TrafficConfig
	rng   *sim.RNG
	outQ  *queue.FIFO[flit.Flit]
	pktID uint64
	inj   injectGate

	// The source's only input is its own clock (the pre-drawn gate):
	// deliveries are merely counted, so nothing else need wake it.
	portWakes

	Sent      stats.Counter
	Recv      stats.Counter
	Throttled stats.Counter
}

// injectGate is the pre-drawn injection gating shared by TrafficNode and
// the service workload's clients: a per-cycle burst-modulator step
// followed by an injection coin. Gating is always drawn ahead —
// up to the next cycle that comes up heads — so the owner can say when it
// next injects and sleep until then. Each cycle's gating is drawn exactly
// once, in cycle order, and drawing stops at the first heads until that
// injection (and its destination draw, from the same stream) is consumed,
// so the RNG stream is the one a cycle-by-cycle draw produces, and the
// generator state at any cycle is the same whether the owner was stepped
// every cycle or slept. drawnThrough is the last cycle whose gating has
// been drawn; nextInject is the earliest drawn cycle that came up heads
// (-1 when none has), consumed by the gate call that injects it.
type injectGate struct {
	rng   *sim.RNG // shared with the owner's destination draws
	burst *BurstModulator
	coin  sim.Coin // heads with probability rate
	// dense marks a source whose attempts are on average less than
	// denseGap cycles apart: sleeping through such gaps costs more than
	// the idle Steps it saves, so the source never asks to, and with
	// nothing to gain from drawing ahead it draws cycle by cycle instead
	// (one straight-line draw per Step, which is what a loaded network's
	// tick is made of).
	dense bool
	// sched, when non-nil, is this source's shared recorded stream, read
	// at cursor instead of drawing (schedule.go).
	sched  *schedule
	cursor int

	drawnThrough int64
	nextInject   int64
}

// denseGap is the mean gap between injection attempts, in cycles, below
// which a source does not sleep: an idle Step of a source is a compare or
// two, a sleep a NextEvent call and the engine's bookkeeping around it, so
// it takes on the order of ten Steps saved to pay for one.
const denseGap = 16

func newInjectGate(rng *sim.RNG, rate float64, burst *BurstModulator) injectGate {
	return injectGate{
		rng: rng, coin: sim.NewCoin(rate), burst: burst,
		dense:        burst == nil && rate*denseGap >= 1,
		drawnThrough: -1, nextInject: -1,
	}
}

// gate reports whether cycle now attempts an injection, consuming it.
func (g *injectGate) gate(now int64) bool {
	if g.dense {
		g.drawnThrough = now
		return g.rng.Flip(g.coin)
	}
	// The common case inline: an attempt already drawn, for a later cycle.
	if g.nextInject > now || (g.nextInject < now && g.next(now) != now) {
		return false
	}
	g.nextInject = -1 // consumed
	return true
}

// next reports the earliest cycle >= now that may attempt an injection,
// drawing gating decisions forward as far as needed (the queue-occupancy
// check is the owner's).
func (g *injectGate) next(now int64) int64 {
	if g.dense {
		return now
	}
	if g.nextInject >= now {
		return g.nextInject
	}
	if g.drawnThrough >= now {
		return g.drawnThrough + 1 // everything drawn so far came up tails
	}
	if g.coin == 0 {
		// No injection can ever happen, so the per-cycle gating draws can
		// never be observed (destinations are drawn only on injection).
		return sim.NoEvent
	}
	return g.draw(now + ffwdHorizon)
}

// draw draws gating forward, one cycle at a time, up to the first cycle
// that attempts an injection, or through cycle limit if none does. A
// steady source's cycle is one coin, and the gap is drawn as one run (what
// a slept-through cycle costs: DESIGN.md, "Idle sources"); a bursty one's
// is the burst modulator step first, then (only while on, mirroring the
// historical short-circuit) the coin.
func (g *injectGate) draw(limit int64) int64 {
	if g.sched != nil {
		if c, ok := g.replay(limit); ok {
			return c
		}
	}
	heads := false
	if g.burst == nil {
		var n int64
		n, heads = g.rng.Tails(g.coin, limit-g.drawnThrough)
		g.drawnThrough += n
	} else {
		for !heads && g.drawnThrough < limit {
			g.drawnThrough++
			heads = g.burst.Step() && g.rng.Flip(g.coin)
		}
	}
	if !heads {
		return g.drawnThrough + 1
	}
	g.nextInject = g.drawnThrough
	return g.nextInject
}

// NewTrafficNode creates a traffic node for endpoint id (a switch id on
// non-concentrated topologies; a crossbar slot on the cmesh).
func NewTrafficNode(id int, topo Topology, cfg TrafficConfig, seed int64) *TrafficNode {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	t := &TrafficNode{
		id: id, topo: topo, cfg: cfg,
		rng:  sim.NewRNG(seed ^ int64(id)*0x9E37),
		outQ: queue.NewFIFO[flit.Flit](cfg.QueueCap),
	}
	var burst *BurstModulator
	if cfg.Burst != nil {
		// The modulator draws from its own RNG stream so enabling bursts
		// does not perturb the destination/injection stream of the base
		// pattern beyond the gating itself.
		burst = NewBurstModulator(*cfg.Burst, seed^int64(id)*0x9E37^0x5B75)
	}
	t.inj = newInjectGate(t.rng, cfg.Rate, burst)
	return t
}

// Name implements sim.Component.
func (t *TrafficNode) Name() string { return fmt.Sprintf("traffic(%d)", t.id) }

// Step implements sim.Component.
func (t *TrafficNode) Step(now int64) {
	if !t.inj.gate(now) {
		if t.outQ.Len() == 0 && !t.inj.dense {
			t.wake.Idle()
		}
		return
	}
	if t.outQ.Full() {
		t.Throttled.Inc()
		t.inj.detach() // the record drew a destination here
		return
	}
	dst := t.destination()
	if dst == t.id {
		return
	}
	dx, dy := t.topo.EndpointCoord(dst)
	t.pktID++
	f := flit.Flit{
		DstX: uint8(dx), DstY: uint8(dy),
		Type: flit.Message, Sub: flit.SubMsgData,
		Src:  uint8(t.id & flit.MaxSrc),
		Data: uint32(now),
	}
	f.Meta.InjectCycle = now
	f.Meta.PacketID = uint64(t.id)<<40 | t.pktID
	t.outQ.Push(f)
	t.puller.Wake()
	t.Sent.Inc()
	if t.cfg.Record != nil {
		t.cfg.Record.RecordInjection(now, t.id, dst, f.Data)
	}
}

// destination picks this cycle's destination endpoint. All patterns are
// defined on the endpoint grid, so they are the same address streams on
// every topology serving the same endpoint count; only the fabric beneath
// them changes.
func (t *TrafficNode) destination() int {
	switch t.cfg.Pattern {
	case Uniform:
		d := t.rng.Intn(t.topo.NumEndpoints() - 1)
		if d >= t.id {
			d++
		}
		return d
	case Transpose:
		return PermutationDest(Transpose, t.topo, t.id)
	case Hotspot:
		return t.cfg.HotspotNode
	case Neighbor:
		// The east neighbour on the endpoint grid, wrapping in address
		// space (on a mesh the wrap destination is routed the long way
		// through the fabric — the addressing is topology-independent).
		ex, ey := t.topo.EndpointCoord(t.id)
		return t.topo.EndpointID(ex+1, ey)
	case BitComplement, BitReversal, Shuffle, Tornado:
		return PermutationDest(t.cfg.Pattern, t.topo, t.id)
	}
	panic("noc: unknown traffic pattern")
}

// TryPull implements LocalPort.
func (t *TrafficNode) TryPull() (flit.Flit, bool) { return t.outQ.Pop() }

// Deliver implements LocalPort.
func (t *TrafficNode) Deliver(flit.Flit, int64) { t.Recv.Inc() }

// Pending returns the current source-queue occupancy.
func (t *TrafficNode) Pending() int { return t.outQ.Len() }

// ffwdHorizon bounds how many cycles of gating one call pre-draws. When no
// injection lands inside the horizon the owner sleeps at most this far
// and asks again — still a large multiple of a full tick's cost per call,
// without unbounded scanning at very low rates.
const ffwdHorizon = 1 << 14

// NextEvent implements sim.NextEventer. While the source queue is
// non-empty the node reports the current cycle (the switch must keep
// draining it); otherwise it pre-draws gating decisions forward and
// reports the next injection-attempt cycle.
func (t *TrafficNode) NextEvent(now int64) int64 {
	if t.outQ.Len() > 0 {
		return now
	}
	return t.inj.next(now)
}

// trafficSnap is the checkpointed state of a TrafficNode.
type trafficSnap struct {
	rng          sim.RNG
	burst        BurstModulator
	hasBurst     bool
	outQ         queue.Snap[flit.Flit]
	pktID        uint64
	drawnThrough int64
	nextInject   int64
	sched        *schedule
	cursor       int
	sent         stats.Counter
	recv         stats.Counter
	throttled    stats.Counter
}

// Snapshot implements sim.Checkpointable.
func (t *TrafficNode) Snapshot() any {
	s := trafficSnap{
		rng: *t.rng, outQ: t.outQ.Snapshot(),
		pktID:        t.pktID,
		drawnThrough: t.inj.drawnThrough, nextInject: t.inj.nextInject,
		sched: t.inj.sched, cursor: t.inj.cursor,
		sent: t.Sent, recv: t.Recv, throttled: t.Throttled,
	}
	if t.inj.burst != nil {
		s.burst, s.hasBurst = t.inj.burst.snapshot(), true
	}
	return s
}

// Restore implements sim.Checkpointable.
func (t *TrafficNode) Restore(snap any) {
	s := snap.(trafficSnap)
	*t.rng = s.rng
	if s.hasBurst {
		t.inj.burst.restore(s.burst)
	}
	t.outQ.Restore(s.outQ)
	t.pktID = s.pktID
	t.inj.drawnThrough, t.inj.nextInject = s.drawnThrough, s.nextInject
	t.inj.sched, t.inj.cursor = s.sched, s.cursor
	t.Sent, t.Recv, t.Throttled = s.sent, s.recv, s.throttled
}
