package noc

import (
	"fmt"

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

	// nbr is set on the adaptive switch only: the downstream switch behind
	// every output port, nil where the fabric defines no link (see
	// wireNeighbors).
	nbr *[NumPorts]*routerPorts

	Stats SwitchStats
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

// Snapshot implements sim.Checkpointable.
func (s *deflector) Snapshot() any { return s.Stats }

// Restore implements sim.Checkpointable.
func (s *deflector) Restore(snap any) { s.Stats = snap.(SwitchStats) }

// pick returns the port among candidates a flit is given, or ok=false when
// every candidate is taken. The deflection switch takes the first free one.
// The adaptive switch takes the free one whose downstream switch has the
// fewest flits arriving this cycle, ties broken by candidate order — the
// estimate is one cycle stale, what dedicated congestion wires would carry.
func (s *deflector) pick(candidates []Port, taken *[NumPorts]bool) (Port, bool) {
	best, bestLoad, found := Port(0), 0, false
	for _, p := range candidates {
		if taken[p] {
			continue
		}
		if s.nbr == nil {
			return p, true
		}
		if load := s.nbr[p].inOccupancy(); !found || load < bestLoad {
			best, bestLoad, found = p, load, true
		}
	}
	return best, found
}

// place sends f out of port p: the one copy a hop costs, from where the
// flit sits (an input register, or the caller's frame for an injection)
// into the slot of the output register the next cycle reads.
func (s *deflector) place(f *flit.Flit, p Port, productive bool, taken *[NumPorts]bool) {
	out := s.out[p].Write()
	*out = *f
	out.Meta.Hops++
	if productive {
		s.Stats.Productive.Inc()
	} else {
		out.Meta.Deflections++
		s.Stats.Deflected.Inc()
	}
	taken[p] = true
	s.Stats.Routed.Inc()
}

// inject places a flit pulled from the local node: a free productive port
// if there is one, any free port otherwise (always, for the degenerate
// self-addressed flit, which has no productive port).
func (s *deflector) inject(f *flit.Flit, taken *[NumPorts]bool) {
	s.Stats.Injected.Inc()
	s.net.noteInjected()
	if p, ok := s.pick(s.route(f).productive(), taken); ok {
		s.place(f, p, true, taken)
	} else if p, ok := s.pick(s.ports, taken); ok {
		s.place(f, p, false, taken)
	} else {
		panic("noc: injected with no free port")
	}
}

// Step implements sim.Component; it runs in sim.PhaseSwitch. Arrivals are
// arbitrated through pointers into the input registers and never copied
// before they leave.
func (s *deflector) Step(now int64) {
	var taken [NumPorts]bool
	var arr [NumPorts]*flit.Flit // arrivals, in port order
	n := 0
	for _, in := range s.in {
		if in == nil {
			continue
		}
		if f := in.Read(); f != nil {
			arr[n] = f
			n++
		}
	}
	if n == 0 {
		// Idle fast path: no flits in flight through this switch, so every
		// output port is free and the only possible work is an injection.
		// This is the common case at the calibrated workloads' loads.
		if f, ok := s.local.TryPull(); ok {
			s.inject(&f, &taken)
		} else {
			s.wake.Idle()
		}
		return
	}

	// Ejection: pick the oldest flit addressed to this node.
	eject := -1
	for i, f := range arr[:n] {
		if s.route(f).eject && (eject < 0 || older(f, arr[eject])) {
			eject = i
		}
	}
	if eject >= 0 {
		f := arr[eject]
		s.Stats.Ejected.Inc()
		s.net.noteDelivered(f, now)
		s.local.Deliver(*f, now)
		copy(arr[eject:], arr[eject+1:n])
		n--
	}

	// Route the remaining flits, oldest first, through productive ports.
	// Insertion sort: at most four pointers, every cycle. It is stable, so
	// flits of equal age keep arrival-port order — the arbitration's last
	// tie-break.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && older(arr[j], arr[j-1]); j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	lost := 0 // arr[:lost] collects the flits that got no productive port
	for _, f := range arr[:n] {
		rt := s.route(f)
		if rt.eject {
			// Lost the ejection port this cycle; must keep moving.
			s.Stats.EjectMissed.Inc()
		} else if p, ok := s.pick(rt.productive(), &taken); ok {
			s.place(f, p, true, &taken)
			continue
		}
		arr[lost] = f
		lost++
	}
	for _, f := range arr[:lost] {
		p, ok := s.pick(s.ports, &taken)
		if !ok {
			// Cannot happen: arrivals never exceed the switch's real
			// ports (a mesh corner has two links, so at most two flits
			// arrive), so every flit finds a free real port.
			panic("noc: " + s.net.Kind.String() + " switch dropped a flit")
		}
		s.place(f, p, false, &taken)
	}

	// Injection: only when an output slot is left over (every arrival that
	// stayed took one real port).
	if n < len(s.ports) {
		if f, ok := s.local.TryPull(); ok {
			s.inject(&f, &taken)
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
