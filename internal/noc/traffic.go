package noc

import (
	"fmt"

	"repro/internal/enum"
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

var patterns = enum.New[Pattern]("noc", "pattern", []string{
	Uniform:       "uniform",
	Transpose:     "transpose",
	Hotspot:       "hotspot",
	Neighbor:      "neighbor",
	BitComplement: "bit-complement",
	BitReversal:   "bit-reversal",
	Shuffle:       "shuffle",
	Tornado:       "tornado",
})

// String implements fmt.Stringer.
func (p Pattern) String() string { return patterns.String(p) }

// InjectionRecorder observes every injection a traffic source's queue
// accepts (trace capture; internal/trace.Trace implements it). The
// recorder is called on the engine thread, after the injection decision
// is final — post gating, post throttle, post the self-destination skip —
// so it sees exactly the flits the network sees and never perturbs the
// run it observes.
type InjectionRecorder interface {
	RecordInjection(cycle int64, src, dst int, meta uint32)
}

// TrafficConfig parameterizes a synthetic traffic node. Its key tags
// are result-cache field names, as MeasureConfig's.
type TrafficConfig struct {
	Pattern Pattern `key:"pattern"`
	// Rate is the per-node injection probability per cycle (offered load
	// in flits/node/cycle), in (0, 1].
	Rate float64 `key:"rate"`
	// HotspotNode is the destination for the Hotspot pattern; every other
	// pattern ignores it, and Validate resolves it to 0 there.
	HotspotNode int `key:"hotspot_node"`
	// QueueCap bounds the source queue (0: defaultQueueCap); when full
	// the generator throttles (counts a stall instead of queueing), like a
	// real injection FIFO.
	QueueCap int `key:"queue_cap"`
	// Burst, when non-nil, gates injection through a two-state on/off
	// modulator: the node injects at Rate only while the modulator is in
	// its on state. Composable with every Pattern.
	Burst *BurstConfig
	// Record, when non-nil, receives every accepted injection. Purely
	// observational: results are byte-identical with or without it.
	Record InjectionRecorder `key:"-"`
}

// defaultQueueCap is a source queue's capacity when a config leaves it 0.
const defaultQueueCap = 16

// Validate checks every per-point bound of c on topo and then resolves
// its defaults in place (queue cap 0 to defaultQueueCap; the hotspot node
// to 0 under every pattern but Hotspot), so two configs that simulate
// alike are equal afterwards and key alike. Validating a resolved config
// changes nothing.
func (c *TrafficConfig) Validate(topo Topology) error {
	if err := ValidatePattern(c.Pattern, topo); err != nil {
		return err
	}
	if n := topo.NumEndpoints(); c.HotspotNode < 0 || c.HotspotNode >= n {
		return fmt.Errorf("noc: hotspot_node %d outside the %d endpoints (0..%d)", c.HotspotNode, n, n-1)
	}
	if err := checkSource("rate", c.Rate, c.QueueCap, c.Burst); err != nil {
		return err
	}
	if c.QueueCap == 0 {
		c.QueueCap = defaultQueueCap
	}
	if c.Pattern != Hotspot {
		c.HotspotNode = 0
	}
	return nil
}

// checkSource holds the bounds every injecting source shares: an
// injection probability in (0, 1], a queue capacity >= 0 (0 is the
// default) and, when present, a valid burst modulator.
func checkSource(rateField string, rate float64, queueCap int, burst *BurstConfig) error {
	if !(rate > 0 && rate <= 1) { // written positively: NaN is outside
		return fmt.Errorf("noc: %s %g outside (0, 1]", rateField, rate)
	}
	if queueCap < 0 {
		return fmt.Errorf("noc: queue_cap must be >= 0, got %d", queueCap)
	}
	if burst != nil {
		return burst.Validate()
	}
	return nil
}

// TrafficNode is a synthetic traffic source/sink implementing LocalPort.
// It is also a sim.Component (register it in sim.PhaseNode).
type TrafficNode struct {
	cfg TrafficConfig
	inj injectGate
	// dst is the destination of every pattern but Uniform, which draws
	// one per injection: the others are a function of the source endpoint
	// and the topology alone, so they are asked once.
	dst int

	// The source's only input is its own clock (the pre-drawn gate):
	// deliveries are merely counted, so nothing else need wake it.
	source

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
	rng   *sim.RNG // also the owner's destination draws
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

// newInjectGate makes endpoint id's gate for a source run on seed: the
// one place a gated source's streams are derived. The burst modulator,
// when burst is set, draws from a stream of its own beside the
// destination/injection stream, so enabling bursts does not perturb the
// base stream beyond the gating itself.
func newInjectGate(id int, seed int64, rate float64, burst *BurstConfig) injectGate {
	stream := seed ^ int64(id)*0x9E37
	g := injectGate{
		rng: sim.NewRNG(stream), coin: sim.NewCoin(rate),
		dense:        burst == nil && rate*denseGap >= 1,
		drawnThrough: -1, nextInject: -1,
	}
	if burst != nil {
		g.burst = NewBurstModulator(*burst, stream^0x5B75)
	}
	return g
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
// non-concentrated topologies; a crossbar slot on the cmesh). It holds
// cfg to Validate, which resolves its defaults, and panics where Validate
// refuses it, with one exception: Rate 0 is a source that never injects,
// the load of an idle hand-built rig, which no measured point can ask
// for. MeasureCtx validates before it builds a node.
func NewTrafficNode(id int, topo Topology, cfg TrafficConfig, seed int64) *TrafficNode {
	idle := cfg.Rate == 0
	if idle {
		cfg.Rate = 1
	}
	if err := cfg.Validate(topo); err != nil {
		panic(err.Error())
	}
	if idle {
		cfg.Rate = 0
	}
	return &TrafficNode{
		cfg:    cfg,
		inj:    newInjectGate(id, seed, cfg.Rate, cfg.Burst),
		dst:    fixedDest(cfg, topo, id),
		source: newSource(id, topo, cfg.QueueCap),
	}
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
	t.emit(dst, flit.SubMsgData, uint32(now), now)
	if t.cfg.Record != nil {
		t.cfg.Record.RecordInjection(now, t.id, dst, uint32(now))
	}
}

// destination picks this cycle's destination endpoint: a draw under
// Uniform, the fixed destination under every other pattern.
func (t *TrafficNode) destination() int {
	if t.cfg.Pattern != Uniform {
		return t.dst
	}
	d := t.inj.rng.Intn(t.topo.NumEndpoints() - 1)
	if d >= t.id {
		d++
	}
	return d
}

// fixedDest is endpoint id's destination under every pattern but Uniform
// (for which it returns -1). All patterns are defined on the endpoint
// grid, so they are the same address streams on every topology serving
// the same endpoint count; only the fabric beneath them changes.
func fixedDest(cfg TrafficConfig, topo Topology, id int) int {
	switch p := cfg.Pattern; {
	case p == Uniform:
		return -1
	case p == Hotspot:
		return cfg.HotspotNode
	case p == Neighbor:
		// The east neighbour on the endpoint grid, wrapping in address
		// space (on a mesh the wrap destination is routed the long way
		// through the fabric — the addressing is topology-independent).
		ex, ey := topo.EndpointCoord(id)
		return topo.EndpointID(ex+1, ey)
	case p.IsPermutation():
		return PermutationDest(p, topo, id)
	}
	panic("noc: unknown traffic pattern")
}

// Deliver implements LocalPort.
func (t *TrafficNode) Deliver(*flit.Flit, int64) { t.Recv.Inc() }

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
	recv         stats.Counter
	throttled    stats.Counter
}

// Snapshot implements sim.Checkpointable.
func (t *TrafficNode) Snapshot() any {
	s := trafficSnap{
		rng: *t.inj.rng, outQ: t.outQ.Snapshot(),
		pktID:        t.pktID,
		drawnThrough: t.inj.drawnThrough, nextInject: t.inj.nextInject,
		sched: t.inj.sched, cursor: t.inj.cursor,
		recv: t.Recv, throttled: t.Throttled,
	}
	if t.inj.burst != nil {
		s.burst, s.hasBurst = t.inj.burst.snapshot(), true
	}
	return s
}

// Restore implements sim.Checkpointable.
func (t *TrafficNode) Restore(snap any) {
	s := snap.(trafficSnap)
	*t.inj.rng = s.rng
	if s.hasBurst {
		t.inj.burst.restore(s.burst)
	}
	t.outQ.Restore(s.outQ)
	t.pktID = s.pktID
	t.inj.drawnThrough, t.inj.nextInject = s.drawnThrough, s.nextInject
	t.inj.sched, t.inj.cursor = s.sched, s.cursor
	t.Recv, t.Throttled = s.recv, s.throttled
}
