package noc

import (
	"fmt"

	"repro/internal/sim"
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
//     fewest flits arriving, a count its upstream switches keep as they
//     place flits towards it. The estimate is one cycle stale, exactly the
//     information a hardware implementation could carry on dedicated
//     congestion wires.
//
// Under skewed traffic this spreads load across the two productive
// directions of a torus hop instead of always preferring the first one,
// which delays the onset of deflection cascades.
type AdaptiveSwitch struct{ deflector }

// Name implements sim.Component.
func (s *AdaptiveSwitch) Name() string { return fmt.Sprintf("adsw(%d,%d)", s.x, s.y) }

// wireNeighbors resolves the arrival count of the downstream switch behind
// every output port; called by NewRouterNetwork after all switches exist.
// Ports the fabric defines no link for stay nil, and no candidate mask
// offers them.
func (s *AdaptiveSwitch) wireNeighbors(e *sim.Engine, n *Network) {
	s.nbr, s.clock = new([NumPorts]*arrivalCount), e
	for _, p := range s.ports {
		nb, _ := n.Topo.Neighbor(s.id, p)
		s.nbr[p] = &n.Routers[nb].(*AdaptiveSwitch).arrivals
	}
}
