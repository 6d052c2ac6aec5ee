package noc

import (
	"fmt"

	"repro/internal/flit"
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
type DeflSwitch struct {
	routerPorts

	// scratch buffers reused across cycles to avoid allocation.
	pool  []routedFlit
	ports []Port

	Stats SwitchStats
}

// SwitchStats counts per-switch routing events.
type SwitchStats struct {
	Routed      stats.Counter // flits forwarded to an output port
	Productive  stats.Counter // flits that took a productive port
	Deflected   stats.Counter // flits that took an unproductive port
	Ejected     stats.Counter // flits delivered to the local node
	EjectMissed stats.Counter // flits at destination deflected because the eject port was busy
	Injected    stats.Counter // flits accepted from the local node
}

type routedFlit struct {
	f      flit.Flit
	inPort int // arrival port, used as deterministic tie-break
	dx, dy int // destination switch coordinates (resolved once on arrival)
}

// Name implements sim.Component.
func (s *DeflSwitch) Name() string { return fmt.Sprintf("sw(%d,%d)", s.x, s.y) }

// Buffered implements Router; the deflection switch stores nothing.
func (s *DeflSwitch) Buffered() int { return 0 }

// PeakBuffered implements Router; the deflection switch stores nothing.
func (s *DeflSwitch) PeakBuffered() int { return 0 }

// Deflections implements Router.
func (s *DeflSwitch) Deflections() int64 { return s.Stats.Deflected.Value() }

// EjectedCount implements Router.
func (s *DeflSwitch) EjectedCount() int64 { return s.Stats.Ejected.Value() }

// Step implements sim.Component; it runs in sim.PhaseSwitch.
func (s *DeflSwitch) Step(now int64) {
	pool := s.pool[:0]
	for p := 0; p < int(NumPorts); p++ {
		if s.in[p] != nil && s.in[p].Valid() {
			f, _ := s.in[p].Get()
			dx, dy := s.dstSwitch(f)
			pool = append(pool, routedFlit{f: f, inPort: p, dx: dx, dy: dy})
		}
	}
	if len(pool) == 0 {
		// Idle fast path: no flits in flight through this switch, so every
		// output port is free and the only possible work is an injection.
		// This is the common case at the calibrated workloads' loads and
		// skips the ejection/sort/placement machinery entirely.
		if f, ok := s.local.TryPull(); ok {
			s.injectIntoIdle(f)
		} else {
			s.wake.Idle()
		}
		return
	}

	// Ejection: pick the oldest flit addressed to this node.
	ejectIdx := -1
	for i := range pool {
		if pool[i].dx != s.x || pool[i].dy != s.y {
			continue
		}
		if ejectIdx < 0 || older(pool[i], pool[ejectIdx]) {
			ejectIdx = i
		}
	}
	if ejectIdx >= 0 {
		f := pool[ejectIdx].f
		s.Stats.Ejected.Inc()
		s.net.noteDelivered(f, now)
		s.local.Deliver(f, now)
		pool = append(pool[:ejectIdx], pool[ejectIdx+1:]...)
	}

	// Route the remaining flits, oldest first, through productive ports.
	// Insertion sort: the pool holds at most four flits and this runs
	// every cycle, so reflection-based sorting is too expensive.
	for i := 1; i < len(pool); i++ {
		for j := i; j > 0 && older(pool[j], pool[j-1]); j-- {
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
	}
	var taken [NumPorts]bool
	var assigned [NumPorts]flit.Flit
	var assignedOK [NumPorts]bool
	place := func(f flit.Flit, p Port, productive bool) {
		f.Meta.Hops++
		if productive {
			s.Stats.Productive.Inc()
		} else {
			f.Meta.Deflections++
			s.Stats.Deflected.Inc()
		}
		taken[p] = true
		assigned[p], assignedOK[p] = f, true
		s.Stats.Routed.Inc()
	}

	deflect := pool[:0] // flits that did not get a productive port
	for _, rf := range pool {
		atDst := rf.dx == s.x && rf.dy == s.y
		if atDst {
			// Lost the ejection port this cycle; must keep moving.
			s.Stats.EjectMissed.Inc()
			deflect = append(deflect, rf)
			continue
		}
		s.ports = s.topo.ProductivePorts(s.ports[:0], s.x, s.y, rf.dx, rf.dy)
		placed := false
		for _, p := range s.ports {
			if !taken[p] {
				place(rf.f, p, true)
				placed = true
				break
			}
		}
		if !placed {
			deflect = append(deflect, rf)
		}
	}
	for _, rf := range deflect {
		placed := false
		for p := Port(0); p < NumPorts; p++ {
			if s.out[p] == nil || taken[p] {
				continue
			}
			place(rf.f, p, false)
			placed = true
			break
		}
		if !placed {
			// Cannot happen: arrivals never exceed the switch's real
			// ports (a mesh corner has two links, so at most two flits
			// arrive), so every flit finds a free real port.
			panic("noc: deflection switch dropped a flit")
		}
	}

	// Injection: only when an output slot is left over.
	free := false
	for p := Port(0); p < NumPorts; p++ {
		if s.out[p] != nil && !taken[p] {
			free = true
			break
		}
	}
	if free {
		if f, ok := s.local.TryPull(); ok {
			s.Stats.Injected.Inc()
			s.net.noteInjected()
			// Prefer a free productive port; fall back to any free port.
			dx, dy := s.dstSwitch(f)
			s.ports = s.topo.ProductivePorts(s.ports[:0], s.x, s.y, dx, dy)
			placed := false
			for _, p := range s.ports {
				if !taken[p] {
					place(f, p, true)
					placed = true
					break
				}
			}
			if !placed {
				for p := Port(0); p < NumPorts; p++ {
					if s.out[p] == nil || taken[p] {
						continue
					}
					place(f, p, false)
					placed = true
					break
				}
			}
			if !placed {
				panic("noc: injected with no free port")
			}
		}
	}

	for p := Port(0); p < NumPorts; p++ {
		if assignedOK[p] {
			s.out[p].Set(assigned[p])
		}
	}
	s.pool = pool[:0]
}

// injectIntoIdle places a freshly injected flit when every output port is
// free. It mirrors the placement the full path would compute: the first
// productive port, falling back to the first port (deflection) for the
// degenerate self-addressed case.
func (s *DeflSwitch) injectIntoIdle(f flit.Flit) {
	s.Stats.Injected.Inc()
	s.net.noteInjected()
	dx, dy := s.dstSwitch(f)
	s.ports = s.topo.ProductivePorts(s.ports[:0], s.x, s.y, dx, dy)
	f.Meta.Hops++
	p := Port(0)
	if len(s.ports) > 0 {
		p = s.ports[0]
		s.Stats.Productive.Inc()
	} else {
		for q := Port(0); q < NumPorts; q++ {
			if s.out[q] != nil {
				p = q
				break
			}
		}
		f.Meta.Deflections++
		s.Stats.Deflected.Inc()
	}
	s.Stats.Routed.Inc()
	s.out[p].Set(f)
}

// older orders flits for arbitration: oldest injection cycle first, then
// packet id, then sequence number, then arrival port. The ordering is total
// and deterministic.
func older(a, b routedFlit) bool {
	if a.f.Meta.InjectCycle != b.f.Meta.InjectCycle {
		return a.f.Meta.InjectCycle < b.f.Meta.InjectCycle
	}
	if a.f.Meta.PacketID != b.f.Meta.PacketID {
		return a.f.Meta.PacketID < b.f.Meta.PacketID
	}
	if a.f.Seq != b.f.Seq {
		return a.f.Seq < b.f.Seq
	}
	return a.inPort < b.inPort
}
