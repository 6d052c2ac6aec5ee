package noc

import (
	"fmt"

	"repro/internal/flit"
)

// AdaptiveSwitch is an age-weighted adaptive deflection router. It keeps
// every minimal-storage property of DeflSwitch — nothing is buffered,
// nothing exerts backpressure, every incoming flit leaves in the same
// cycle — but improves two decisions:
//
//   - Arbitration stays oldest-flit-first (age priority), so the flits that
//     have waited longest pick their ports first.
//   - Port selection is congestion-aware: among the free productive ports
//     (and, for deflected flits, among the free unproductive ports) the
//     switch picks the one whose downstream switch currently has the
//     fewest flits arriving, read from the neighbour's input links. The
//     estimate is one cycle stale, exactly the information a hardware
//     implementation could carry on dedicated congestion wires.
//
// Under skewed traffic this spreads load across the two productive
// directions of a torus hop instead of always preferring the first one,
// which delays the onset of deflection cascades.
type AdaptiveSwitch struct {
	routerPorts

	// scratch buffers reused across cycles to avoid allocation.
	pool  []routedFlit
	ports []Port
	nbr   [NumPorts]Router // downstream switch through each port (see wireNeighbors)

	Stats SwitchStats
}

// wireNeighbors resolves the downstream switch behind every output port;
// called by NewRouterNetwork after all switches exist. Ports the fabric
// defines no link for stay nil and pickPort never offers them.
func (s *AdaptiveSwitch) wireNeighbors(n *Network) {
	for p := Port(0); p < NumPorts; p++ {
		if nb, ok := s.topo.Neighbor(s.id, p); ok {
			s.nbr[p] = n.Routers[nb]
		}
	}
}

// Name implements sim.Component.
func (s *AdaptiveSwitch) Name() string { return fmt.Sprintf("adsw(%d,%d)", s.x, s.y) }

// Buffered implements Router; the adaptive switch stores nothing.
func (s *AdaptiveSwitch) Buffered() int { return 0 }

// PeakBuffered implements Router; the adaptive switch stores nothing.
func (s *AdaptiveSwitch) PeakBuffered() int { return 0 }

// Deflections implements Router.
func (s *AdaptiveSwitch) Deflections() int64 { return s.Stats.Deflected.Value() }

// EjectedCount implements Router.
func (s *AdaptiveSwitch) EjectedCount() int64 { return s.Stats.Ejected.Value() }

// downstreamLoad returns the congestion estimate for routing out of port
// p: the number of flits arriving at the downstream switch this cycle.
func (s *AdaptiveSwitch) downstreamLoad(p Port) int {
	return s.nbr[p].wiring().inOccupancy()
}

// pickPort returns the free port among candidates with the least
// downstream contention (ties broken by candidate order), or ok=false
// when every candidate is taken. Candidate ports without a link (mesh
// edges, reachable through the allPorts deflection fallback) are skipped.
func (s *AdaptiveSwitch) pickPort(candidates []Port, taken *[NumPorts]bool) (Port, bool) {
	best, bestLoad, found := Port(0), 0, false
	for _, p := range candidates {
		if taken[p] || s.nbr[p] == nil {
			continue
		}
		load := s.downstreamLoad(p)
		if !found || load < bestLoad {
			best, bestLoad, found = p, load, true
		}
	}
	return best, found
}

// allPorts enumerates every port, for the deflection fallback.
var allPorts = [NumPorts]Port{East, West, North, South}

// Step implements sim.Component; it runs in sim.PhaseSwitch. The
// structure mirrors DeflSwitch.Step — collect, eject oldest, route oldest
// first, deflect the rest, inject into leftover capacity — with the
// congestion-aware pickPort replacing first-free port selection.
func (s *AdaptiveSwitch) Step(now int64) {
	pool := s.pool[:0]
	for p := 0; p < int(NumPorts); p++ {
		if s.in[p] != nil && s.in[p].Valid() {
			f, _ := s.in[p].Get()
			dx, dy := s.dstSwitch(f)
			pool = append(pool, routedFlit{f: f, inPort: p, dx: dx, dy: dy})
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

	if len(pool) == 0 {
		// Idle fast path: only possible work is an injection.
		if f, ok := s.local.TryPull(); ok {
			s.Stats.Injected.Inc()
			s.net.noteInjected()
			dx, dy := s.dstSwitch(f)
			s.ports = s.topo.ProductivePorts(s.ports[:0], s.x, s.y, dx, dy)
			if p, ok := s.pickPort(s.ports, &taken); ok {
				place(f, p, true)
			} else if p, ok := s.pickPort(allPorts[:], &taken); ok {
				place(f, p, false) // degenerate self-addressed case
			} else {
				panic("noc: adaptive switch has no ports")
			}
			for p := Port(0); p < NumPorts; p++ {
				if assignedOK[p] {
					s.out[p].Set(assigned[p])
				}
			}
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

	// Oldest-first arbitration (insertion sort, at most four entries).
	for i := 1; i < len(pool); i++ {
		for j := i; j > 0 && older(pool[j], pool[j-1]); j-- {
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
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
		if p, ok := s.pickPort(s.ports, &taken); ok {
			place(rf.f, p, true)
		} else {
			deflect = append(deflect, rf)
		}
	}
	for _, rf := range deflect {
		p, ok := s.pickPort(allPorts[:], &taken)
		if !ok {
			// Cannot happen: arrivals never exceed the switch's real
			// ports (a mesh corner has two links, at most two arrivals).
			panic("noc: adaptive switch dropped a flit")
		}
		place(rf.f, p, false)
	}

	// Injection: only when an output slot is left over.
	if f, ok := func() (flit.Flit, bool) {
		for p := Port(0); p < NumPorts; p++ {
			if s.out[p] != nil && !taken[p] {
				return s.local.TryPull()
			}
		}
		return flit.Flit{}, false
	}(); ok {
		s.Stats.Injected.Inc()
		s.net.noteInjected()
		dx, dy := s.dstSwitch(f)
		s.ports = s.topo.ProductivePorts(s.ports[:0], s.x, s.y, dx, dy)
		if p, ok := s.pickPort(s.ports, &taken); ok {
			place(f, p, true)
		} else if p, ok := s.pickPort(allPorts[:], &taken); ok {
			place(f, p, false)
		} else {
			panic("noc: injected with no free port")
		}
	}

	for p := Port(0); p < NumPorts; p++ {
		if assignedOK[p] {
			s.out[p].Set(assigned[p])
		}
	}
	s.pool = pool[:0]
}
