package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DeflSwitch is a bufferless deflection-routed ("hot potato") switch. Every
// cycle it routes each incoming flit to some output port, preferring
// productive ports with oldest-flit-first priority and deflecting the rest;
// it never stores more than the flits that arrived this cycle and never
// exerts backpressure on its neighbours, which are the minimal-storage and
// no-flow-control properties the paper argues for.
//
// At most one flit per cycle is ejected to the local node; a second flit
// addressed to this node is deflected and will come back. Injection from
// the local node happens only when an output port is left free after all
// incoming flits are placed.
type DeflSwitch struct{ deflector }

// Name implements sim.Component.
func (s *DeflSwitch) Name() string { return fmt.Sprintf("sw(%d,%d)", s.x, s.y) }

// SwitchStats counts per-switch routing events.
type SwitchStats struct {
	Routed      stats.Counter // flits forwarded to an output port
	Productive  stats.Counter // flits that took a productive port
	Deflected   stats.Counter // flits that took an unproductive port
	Ejected     stats.Counter // flits delivered to the local node
	EjectMissed stats.Counter // flits at destination deflected because the eject port was busy
	Injected    stats.Counter // flits accepted from the local node
}

// deflector is the deflection switch proper, shared by DeflSwitch and
// AdaptiveSwitch: the two differ only in which free port a flit is given
// (see pick), so they are one Step.
type deflector struct {
	routerPorts

	// The adaptive switch's congestion wires, nil on the deflection
	// switch: arrivals counts the flits reaching this switch's input links,
	// nbr points at the count of the downstream switch behind every output
	// port (nil where the fabric defines no link, see wireNeighbors), and
	// clock is the engine, for the cycle a snapshot is taken on.
	arrivals arrivalCount
	nbr      *[NumPorts]*arrivalCount
	clock    *sim.Engine

	Stats SwitchStats
}

// arrivalCount is how many flits reach a switch's input links in one
// cycle: the adaptive switch's downstream contention estimate, bumped by
// the upstream switch that places each flit. It keeps one slot per cycle
// parity, because within a cycle a neighbour that steps earlier fills the
// next cycle's slot while switches stepping later still read this cycle's.
// Each slot is stamped with its cycle, so a slot last filled two or more
// cycles ago reads as empty and nobody has to clear it.
type arrivalCount struct {
	at [2]int64
	n  [2]uint8
}

// get returns the flits arriving on cycle now.
func (a *arrivalCount) get(now int64) int {
	if a.at[now&1] != now {
		return 0
	}
	return int(a.n[now&1])
}

// bump counts one more flit arriving on cycle at.
func (a *arrivalCount) bump(at int64) {
	i := at & 1
	if a.at[i] != at {
		a.at[i], a.n[i] = at, 0
	}
	a.n[i]++
}

// Buffered implements Router; a deflection switch stores nothing.
func (s *deflector) Buffered() int { return 0 }

// PeakBuffered implements Router; a deflection switch stores nothing.
func (s *deflector) PeakBuffered() int { return 0 }

// Deflections implements Router.
func (s *deflector) Deflections() int64 { return s.Stats.Deflected.Value() }

// EjectedCount implements Router.
func (s *deflector) EjectedCount() int64 { return s.Stats.Ejected.Value() }

// NextEvent implements sim.NextEventer; a bufferless switch holds no state
// across cycles, so it is passive whenever its local port provably has
// nothing to inject and will wake it when that changes.
func (s *deflector) NextEvent(now int64) int64 {
	if !s.localIdle() {
		return now
	}
	return sim.NoEvent
}

// deflSnap is the checkpointed state of a deflection or adaptive switch:
// its counters and, on the adaptive switch, the flits arriving on the
// snapshot's cycle — the count's value, not its slots, so equal states
// snapshot equal.
type deflSnap struct {
	stats    SwitchStats
	arriving int
}

// Snapshot implements sim.Checkpointable.
func (s *deflector) Snapshot() any {
	sn := deflSnap{stats: s.Stats}
	if s.clock != nil {
		sn.arriving = s.arrivals.get(s.clock.Now())
	}
	return sn
}

// Restore implements sim.Checkpointable.
func (s *deflector) Restore(snap any) {
	sn := snap.(deflSnap)
	s.Stats = sn.stats
	if s.clock != nil {
		now := s.clock.Now()
		s.arrivals = arrivalCount{}
		s.arrivals.at[now&1], s.arrivals.n[now&1] = now, uint8(sn.arriving)
	}
}

// pick returns the port among candidates (a port mask) a flit is given,
// or ok=false when every candidate is taken. The deflection switch takes
// the lowest free port. The adaptive switch takes the free one whose
// downstream switch has the fewest flits arriving this cycle, ties broken
// towards the lower port — the estimate is one cycle stale, what dedicated
// congestion wires would carry. Lowest first is Topology.ProductivePorts'
// order, which TestRouteTableMatchesTopology checks, so the pick follows
// the topology's preference among productive ports.
func (s *deflector) pick(candidates, taken uint8, now int64) (Port, bool) {
	free := candidates &^ taken
	if free == 0 {
		return 0, false
	}
	if s.nbr == nil {
		return Port(bits.TrailingZeros8(free)), true
	}
	best, bestLoad := Port(0), int(NumPorts)+1
	for ; free != 0; free &= free - 1 {
		p := Port(bits.TrailingZeros8(free))
		if load := s.nbr[p].get(now); load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best, true
}

// place sends f out of port p: the one copy a hop costs, from where the
// flit sits (an input register, or the caller's frame for an injection)
// into the slot of the output register the next cycle reads. On the
// adaptive switch it also counts the flit at the downstream switch, which
// sees it arrive next cycle.
func (s *deflector) place(f *flit.Flit, p Port, productive bool, taken *uint8, now int64) {
	out := s.out[p].Write()
	*out = *f
	out.Meta.Hops++
	if productive {
		s.Stats.Productive.Inc()
	} else {
		out.Meta.Deflections++
		s.Stats.Deflected.Inc()
	}
	*taken |= 1 << p
	if s.nbr != nil {
		s.nbr[p].bump(now + 1)
	}
	s.Stats.Routed.Inc()
}

// inject places a flit pulled from the local node: a free productive port
// if there is one, any free port otherwise (always, for the degenerate
// self-addressed flit, which has no productive port).
func (s *deflector) inject(f *flit.Flit, taken *uint8, now int64) {
	s.Stats.Injected.Inc()
	s.net.noteInjected()
	if p, ok := s.pick(s.route(f).prodMask, *taken, now); ok {
		s.place(f, p, true, taken, now)
	} else if p, ok := s.pick(s.linkMask, *taken, now); ok {
		s.place(f, p, false, taken, now)
	} else {
		panic("noc: injected with no free port")
	}
}

// arrival is one flit being arbitrated and its route, looked up once.
type arrival struct {
	f  *flit.Flit
	rt *route
}

// Step implements sim.Component; it runs in sim.PhaseSwitch. Arrivals are
// arbitrated through pointers into the input registers and never copied
// before they leave.
func (s *deflector) Step(now int64) {
	var taken uint8           // output ports given out this cycle, as a port mask
	var arr [NumPorts]arrival // arrivals, in port order
	n := 0
	for _, in := range s.in {
		if in == nil {
			continue
		}
		if f := in.Read(); f != nil {
			arr[n].f = f
			n++
		}
	}
	if n == 0 {
		// Idle fast path: no flits in flight through this switch, so every
		// output port is free and the only possible work is an injection.
		// This is the common case at the calibrated workloads' loads.
		if f, ok := s.local.TryPull(); ok {
			s.inject(&f, &taken, now)
		} else {
			s.wake.Idle()
		}
		return
	}

	// Ejection: pick the oldest flit addressed to this node.
	eject := -1
	for i := range arr[:n] {
		a := &arr[i]
		a.rt = s.route(a.f)
		if a.rt.eject && (eject < 0 || older(a.f, arr[eject].f)) {
			eject = i
		}
	}
	if eject >= 0 {
		f := arr[eject].f
		s.Stats.Ejected.Inc()
		s.net.noteDelivered(f, now)
		s.local.Deliver(*f, now)
		copy(arr[eject:], arr[eject+1:n])
		n--
	}

	// Route the remaining flits, oldest first, through productive ports.
	// Insertion sort: at most four arrivals, every cycle. It is stable, so
	// flits of equal age keep arrival-port order — the arbitration's last
	// tie-break.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && older(arr[j].f, arr[j-1].f); j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	lost := 0 // arr[:lost] collects the flits that got no productive port
	for _, a := range arr[:n] {
		if a.rt.eject {
			// Lost the ejection port this cycle; must keep moving.
			s.Stats.EjectMissed.Inc()
		} else if p, ok := s.pick(a.rt.prodMask, taken, now); ok {
			s.place(a.f, p, true, &taken, now)
			continue
		}
		arr[lost] = a
		lost++
	}
	for _, a := range arr[:lost] {
		p, ok := s.pick(s.linkMask, taken, now)
		if !ok {
			// Cannot happen: arrivals never exceed the switch's real
			// ports (a mesh corner has two links, so at most two flits
			// arrive), so every flit finds a free real port.
			panic("noc: " + s.net.Kind.String() + " switch dropped a flit")
		}
		s.place(a.f, p, false, &taken, now)
	}

	// Injection: only when an output slot is left over (every arrival that
	// stayed took one real port).
	if n < len(s.ports) {
		if f, ok := s.local.TryPull(); ok {
			s.inject(&f, &taken, now)
		}
	}
}

// older orders flits for arbitration: oldest injection cycle first, then
// packet id, then sequence number. Flits equal in all three are told apart
// by where they arrived: every caller compares in arrival order and keeps
// that order on a tie.
func older(a, b *flit.Flit) bool {
	if a.Meta.InjectCycle != b.Meta.InjectCycle {
		return a.Meta.InjectCycle < b.Meta.InjectCycle
	}
	if a.Meta.PacketID != b.Meta.PacketID {
		return a.Meta.PacketID < b.Meta.PacketID
	}
	return a.Seq < b.Seq
}
