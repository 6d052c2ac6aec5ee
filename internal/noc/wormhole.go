package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/stats"
)

// Wormhole router geometry: two virtual channels per link (the minimum for
// deadlock-free dimension-order routing on torus rings, via the classic
// dateline scheme) and a small per-VC input buffer, credit-managed.
const (
	// WormholeVCs is the number of virtual channels per link.
	WormholeVCs = 2
	// WormholeVCDepth is the per-VC input-buffer capacity in flits; it is
	// also the initial credit count the upstream switch holds for that
	// buffer.
	WormholeVCDepth = 4
)

// WormholeStats counts per-switch events for the wormhole router.
type WormholeStats struct {
	Routed       stats.Counter // flits forwarded to an output port
	Ejected      stats.Counter // flits delivered to the local node
	Injected     stats.Counter // flits accepted from the local node
	CreditStalls stats.Counter // head flits stalled for lack of credit
	PortStalls   stats.Counter // head flits stalled on a busy output port
}

// WormholeSwitch is a 2-virtual-channel input-buffered wormhole router
// with credit-based flow control, the middle ground between the paper's
// bufferless deflection switch and the unbounded-queue XY baseline:
//
//   - Routing is dimension-order (X then Y, shorter wrap direction), the
//     same path function as XYSwitch.
//   - Each input link has WormholeVCs small FIFOs; a flit advances only
//     when the downstream buffer for its VC has a free slot, tracked by
//     credits. A returned credit takes one cycle to become spendable
//     (it is stamped with the cycle it was returned on, the same
//     two-phase discipline flit links get from sim.Reg, so turnaround
//     never depends on engine stepping order); credits can never go
//     negative (sending is gated on a credit) and the conformance tests
//     assert it.
//   - Deadlock freedom on the torus rings comes from dateline VC
//     allocation: a packet travels a ring on VC0 until it crosses the
//     wrap-around link, then switches to VC1; turning into the Y dimension
//     resets to VC0 (the rings are disjoint resource classes under
//     dimension-order routing).
//
// A flit arriving on a link is buffered in the cycle it arrives and
// becomes eligible for switch allocation the next cycle (buffer write then
// switch traversal, as in a real input-buffered pipeline), so the
// zero-load per-hop latency is one cycle higher than the single-cycle
// deflection switch — the latency cost of buffering the paper points at.
type WormholeSwitch struct {
	routerPorts

	bufs [NumPorts][WormholeVCs]queue.FIFO[flit.Flit]
	injQ queue.FIFO[flit.Flit]
	// occ has a bit set for every non-empty queue, numbered as occBit
	// numbers them, so heads visits only those.
	occ uint16

	// credits[p][v] counts free slots in the downstream switch's input
	// buffer reached through port p, VC v.
	credits [NumPorts][WormholeVCs]int
	// pending[p][v] holds the owed credits returned by the downstream
	// switches, all on cycle freshAt. They fold into credits on the first
	// Step (or returnCredit, or Skipped) that sees a later cycle, so every
	// returned credit has exactly one cycle of latency whatever the
	// stepping order, and a sleeping switch is never woken to collect one.
	pending [NumPorts][WormholeVCs]int
	freshAt int64
	owed    int
	// up[p] is the upstream switch feeding in[p]; draining a flit that
	// arrived there returns one credit to it.
	up [NumPorts]*WormholeSwitch

	buffered  int
	peakBuf   int
	minCredit int // most negative headroom ever observed (stays >= 0)

	Stats WormholeStats
}

func newWormholeSwitch(rp routerPorts) *WormholeSwitch {
	s := &WormholeSwitch{routerPorts: rp, injQ: *queue.NewFIFO[flit.Flit](WormholeVCDepth)}
	for p := 0; p < int(NumPorts); p++ {
		for v := 0; v < WormholeVCs; v++ {
			s.bufs[p][v] = *queue.NewFIFO[flit.Flit](WormholeVCDepth)
			s.credits[p][v] = WormholeVCDepth
		}
	}
	s.minCredit = WormholeVCDepth
	return s
}

// wireCredits resolves the upstream switch behind every input port; called
// by NewRouterNetwork after all switches exist. Ports without a link (mesh
// edges) stay nil; no flit ever arrives there, so no credit ever returns.
func (s *WormholeSwitch) wireCredits(n *Network) {
	for p := Port(0); p < NumPorts; p++ {
		if nb, ok := n.Topo.Neighbor(s.id, p); ok {
			s.up[p] = n.Routers[nb].(*WormholeSwitch)
		}
	}
}

// Name implements sim.Component.
func (s *WormholeSwitch) Name() string { return fmt.Sprintf("whsw(%d,%d)", s.x, s.y) }

// Buffered implements Router.
func (s *WormholeSwitch) Buffered() int { return s.buffered }

// PeakBuffered implements Router.
func (s *WormholeSwitch) PeakBuffered() int { return s.peakBuf }

// Deflections implements Router; wormhole routing never deflects.
func (s *WormholeSwitch) Deflections() int64 { return 0 }

// EjectedCount implements Router.
func (s *WormholeSwitch) EjectedCount() int64 { return s.Stats.Ejected.Value() }

// MinCredit returns the lowest credit count ever observed on any of this
// switch's output VCs. The conformance tests assert it never goes below
// zero (the credit protocol never overruns a downstream buffer).
func (s *WormholeSwitch) MinCredit() int { return s.minCredit }

// returnCredit hands one credit back to the upstream switch feeding input
// port q for VC v, i.e. the slot just drained is free again. The credit is
// stamped with the current cycle and becomes spendable on the upstream
// switch's first Step of a later cycle, so turnaround time does not depend
// on the order switches step in. A slot still holding credits of an
// earlier cycle folds first: those are spendable already, and the slot
// holds one cycle's credits at a time. The upstream switch is not woken;
// with nothing buffered it has no use for a credit.
func (s *WormholeSwitch) returnCredit(q Port, v uint8, now int64) {
	up := s.up[q]
	up.collectCredits(now)
	up.pending[q.Opposite()][v]++
	up.freshAt = now
	up.owed++
}

// collectCredits folds the owed credits returned before cycle now into the
// spendable counters; runs first in Step. An empty slot always reads
// freshAt 0, so equal states snapshot equal.
func (s *WormholeSwitch) collectCredits(now int64) {
	if s.owed == 0 || s.freshAt >= now {
		return
	}
	for p := range s.pending {
		for v, n := range s.pending[p] {
			s.credits[p][v] += n
			if s.credits[p][v] > WormholeVCDepth {
				panic("noc: wormhole credit overflow (more credits than buffer slots)")
			}
		}
	}
	s.pending, s.freshAt, s.owed = [NumPorts][WormholeVCs]int{}, 0, 0
}

// spendCredit consumes one credit for sending out port p on VC v.
func (s *WormholeSwitch) spendCredit(p Port, v uint8) {
	s.credits[p][v]--
	if s.credits[p][v] < s.minCredit {
		s.minCredit = s.credits[p][v]
	}
	if s.credits[p][v] < 0 {
		panic("noc: wormhole credit underflow (sent without a credit)")
	}
}

// sendVC computes the virtual channel for the hop out of port p, given
// the VC the flit currently occupies and whether it is turning into a new
// dimension (or entering the network). Dateline rule: each ring is
// traversed on VC0 until the hop that crosses the wrap-around link, VC1
// afterwards. The topology's WrapCrossing capability hook (read into the
// route table at wiring time) says where the datelines sit; on fabrics
// whose rings never wrap (mesh, cmesh) it is constantly false and the
// escape VC is never allocated — dimension-order routing alone is deadlock
// free there.
func (s *WormholeSwitch) sendVC(cur uint8, p Port, newDim bool) uint8 {
	vc := cur
	if newDim {
		vc = 0
	}
	if s.wrap[p] {
		vc = 1
	}
	return vc
}

// isYPort reports whether p moves along the Y dimension.
func isYPort(p Port) bool { return p == North || p == South }

// whHead is one allocation candidate: the head flit of an input FIFO (a
// per-link VC buffer, or the local injection queue when port == -1).
type whHead struct {
	q    *queue.FIFO[flit.Flit]
	f    *flit.Flit // where it sits in q
	port int        // -1 for the injection queue
	vc   uint8
	bit  uint16 // q's bit in the occupancy mask
}

// The occupancy mask's bits: bit 0 for the injection queue, then one bit
// per link buffer by port and VC (occBit).
const occInj uint16 = 1

func occBit(port int, vc uint8) uint16 { return occInj << (1 + port*WormholeVCs + int(vc)) }

// rebuildOcc recomputes the occupancy mask from the queues.
func (s *WormholeSwitch) rebuildOcc() {
	s.occ = 0
	if s.injQ.Len() > 0 {
		s.occ |= occInj
	}
	for p := range s.bufs {
		for v := range s.bufs[p] {
			if s.bufs[p][v].Len() > 0 {
				s.occ |= occBit(p, uint8(v))
			}
		}
	}
}

// heads collects the current head flit of every non-empty input queue:
// the injection queue first, then the link buffers by port and VC, which
// is the order the allocator's sort leaves flits of equal age in (and the
// order of the occupancy mask's bits).
func (s *WormholeSwitch) heads(scratch []whHead) []whHead {
	for m := s.occ; m != 0; m &= m - 1 {
		bit := m & -m
		if bit == occInj {
			scratch = append(scratch, whHead{q: &s.injQ, f: s.injQ.Front(), port: -1, bit: bit})
			continue
		}
		i := bits.TrailingZeros16(m) - 1
		p, v := i/WormholeVCs, uint8(i%WormholeVCs)
		q := &s.bufs[p][v]
		scratch = append(scratch, whHead{q: q, f: q.Front(), port: p, vc: v, bit: bit})
	}
	return scratch
}

// pop removes the granted head from its queue, returning the freed credit
// upstream when the flit arrived over a link.
func (s *WormholeSwitch) pop(h whHead, now int64) {
	h.q.Drop()
	if h.q.Len() == 0 {
		s.occ &^= h.bit
	}
	s.buffered--
	if h.port >= 0 {
		s.returnCredit(Port(h.port), h.vc, now)
	}
}

// allocate is switch allocation over the flits buffered in previous
// cycles: each output port carries at most one flit per cycle, each input
// FIFO advances at most its head, and one flit may eject. Grants go in
// oldest-first order (the same age arbitration as the deflection switch,
// which keeps the allocator fair network-wide and starvation free); a
// head advances only if its output port is free AND a credit for its VC
// is available. The sort is a stable insertion sort over at most nine
// heads, oldest first by the deflection switch's order.
func (s *WormholeSwitch) allocate(now int64) {
	var scratch [NumPorts*WormholeVCs + 1]whHead
	heads := s.heads(scratch[:0])
	for i := 1; i < len(heads); i++ {
		for j := i; j > 0 && older(heads[j].f, heads[j-1].f); j-- {
			heads[j], heads[j-1] = heads[j-1], heads[j]
		}
	}
	var outTaken [NumPorts]bool
	ejected := false
	for _, h := range heads {
		rt := s.route(h.f)
		if rt.eject {
			// Ejection port: one flit per cycle; younger heads wait.
			if ejected {
				continue
			}
			ejected = true
			s.Stats.Ejected.Inc()
			s.net.noteDelivered(h.f, now)
			s.local.Deliver(*h.f, now)
			s.pop(h, now)
			continue
		}
		p := rt.xy
		if outTaken[p] {
			s.Stats.PortStalls.Inc()
			continue
		}
		// Injected flits and X->Y turns start their ring on VC0.
		newDim := h.port < 0 || (isYPort(p) && !isYPort(Port(h.port)))
		vc := s.sendVC(h.f.Meta.VC, p, newDim)
		if s.credits[p][vc] == 0 {
			s.Stats.CreditStalls.Inc()
			continue
		}
		s.spendCredit(p, vc)
		out := s.out[p].Write()
		*out = *h.f
		out.Meta.VC = vc
		out.Meta.Hops++
		outTaken[p] = true
		s.pop(h, now)
		s.Stats.Routed.Inc()
	}
}

// Step implements sim.Component; it runs in sim.PhaseSwitch.
func (s *WormholeSwitch) Step(now int64) {
	// 0. Collect the credits the downstream switches returned before this
	// cycle.
	s.collectCredits(now)

	// 1. Switch allocation; with nothing buffered there is nothing to
	// allocate.
	if s.buffered > 0 {
		s.allocate(now)
	}

	// 2. Buffer writes: accept link arrivals into the per-VC input
	// buffers. The credit protocol guarantees space; running this after
	// allocation models the one-cycle buffer-write stage (a flit cannot
	// cut through the switch in its arrival cycle).
	for p, in := range s.in {
		if in == nil {
			continue
		}
		if f := in.Read(); f != nil {
			if !s.bufs[p][f.Meta.VC].Push(*f) {
				panic("noc: wormhole input buffer overrun (credit protocol violated)")
			}
			s.occ |= occBit(p, f.Meta.VC)
			s.buffered++
		}
	}
	// 3. Local injection: accept at most one flit per cycle into the
	// injection queue; when it is full the node keeps the flit (the same
	// backpressure contract every router applies through TryPull).
	if !s.injQ.Full() {
		if f, ok := s.local.TryPull(); ok {
			f.Meta.VC = 0
			s.Stats.Injected.Inc()
			s.net.noteInjected()
			s.injQ.Push(f)
			s.occ |= occInj
			s.buffered++
		}
	}
	if s.buffered > s.peakBuf {
		s.peakBuf = s.buffered
	}
	if s.buffered == 0 {
		s.wake.Idle()
	}
}
