package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/stats"
)

// XYSwitch is a conventional input-queued switch with dimension-order
// (X-then-Y) routing, used as the ablation baseline the paper argues
// against: it needs per-input storage where the deflection switch needs
// none. Input queues are unbounded and their peak occupancy is recorded, so
// the storage cost of buffered routing can be compared directly with the
// deflection switch's theoretical-minimum storage (the peak_buffer column
// of examples/scenarios/router-ablation.json).
type XYSwitch struct {
	routerPorts

	queues  [xyLocal + 1]queue.FIFO[flit.Flit] // unbounded rings, one per link port and the local one
	rrStart int

	buffered int // total occupancy across all queues
	peakBuf  int

	Stats XYStats
}

// xyLocal indexes the XY switch's local injection queue, after the link
// ports'.
const xyLocal = int(NumPorts)

// xyQueueReserve is the ring each input queue starts with. The queues are
// unbounded, but at the loads the router is measured at a single one
// rarely holds more (the whole switch peaks at ten or so flits), so a tick
// does not allocate once the network has warmed up.
const xyQueueReserve = 8

func newXYSwitch(rp routerPorts) *XYSwitch {
	s := &XYSwitch{routerPorts: rp}
	for q := range s.queues {
		s.queues[q].Reserve(xyQueueReserve)
	}
	return s
}

// XYStats counts per-switch events for the XY router.
type XYStats struct {
	Routed   stats.Counter
	Ejected  stats.Counter
	Injected stats.Counter
	PeakQ    int // max occupancy observed over any single input queue
}

// Name implements sim.Component.
func (s *XYSwitch) Name() string { return fmt.Sprintf("xysw(%d,%d)", s.x, s.y) }

// Buffered implements Router.
func (s *XYSwitch) Buffered() int { return s.buffered }

// PeakBuffered implements Router.
func (s *XYSwitch) PeakBuffered() int { return s.peakBuf }

// Deflections implements Router; the buffered router never deflects.
func (s *XYSwitch) Deflections() int64 { return 0 }

// EjectedCount implements Router.
func (s *XYSwitch) EjectedCount() int64 { return s.Stats.Ejected.Value() }

// Step implements sim.Component; it runs in sim.PhaseSwitch. A flit
// that arrives at an empty input queue (a link arrival, or the local
// port's Front) competes from where it sits and is buffered only if it
// loses, the empty-buffer bypass of input-queued routers; one that finds
// its queue occupied joins the tail at once.
func (s *XYSwitch) Step(now int64) {
	// cand[q] is input q's flit outside its queue, competing in place.
	var cand [xyLocal + 1]*flit.Flit
	n := 0
	for p, in := range s.in {
		if in == nil {
			continue
		}
		if f := in.Read(); f != nil {
			if s.queues[p].Len() == 0 {
				cand[p] = f
				n++
			} else {
				s.enqueue(p, f)
			}
		}
	}
	// Accept one local injection per cycle.
	if f := s.local.Front(); f != nil {
		s.Stats.Injected.Inc()
		s.net.noteInjected()
		if s.queues[xyLocal].Len() == 0 {
			cand[xyLocal] = f
			n++
		} else {
			s.enqueue(xyLocal, f)
			s.local.Drop()
		}
	}
	if n > 0 || s.buffered > 0 {
		s.forward(&cand, n, now)
	} else {
		s.wake.Idle()
	}
	// The round-robin pointer moves every cycle, busy or not; Skipped owes
	// a sleeper exactly that.
	if s.rrStart++; s.rrStart == len(s.queues) {
		s.rrStart = 0
	}
}

// enqueue buffers f at the tail of input q's queue, recording the queue's
// occupancy watermark where it grows.
func (s *XYSwitch) enqueue(q int, f *flit.Flit) {
	*s.queues[q].PushSlot() = *f
	s.buffered++
	if n := s.queues[q].Len(); n > s.Stats.PeakQ {
		s.Stats.PeakQ = n
	}
}

// forward moves the inputs' heads on: each input's flit in place in cand,
// or else its queue's head. n counts the flits in cand, which a buffered
// switch would have queued this cycle, so they count towards the
// watermarks (each alone in its queue) and a loser is buffered.
func (s *XYSwitch) forward(cand *[xyLocal + 1]*flit.Flit, n int, now int64) {
	if n > 0 && s.Stats.PeakQ == 0 {
		s.Stats.PeakQ = 1
	}
	if b := s.buffered + n; b > s.peakBuf {
		s.peakBuf = b
	}

	// Each output port (and the ejection port) forwards at most one flit
	// per cycle. Round-robin over input queues for fairness; only the
	// head of each queue competes (FIFO order per input preserves
	// in-order delivery per path, the property wormhole/XY designs rely
	// on). The ejection is delivered last, once the local port's Front
	// is copied or dropped, and from a queue before its head is dropped.
	var outTaken [NumPorts]bool
	var eject *flit.Flit
	ejectQ := -1 // the queue eject is the head of, if any
	nq := len(s.queues)
	for i := range nq {
		q := s.rrStart + i
		if q >= nq {
			q -= nq
		}
		f, queued := cand[q], false
		if f == nil {
			if f, queued = s.queues[q].Front(), true; f == nil {
				continue
			}
		}
		if rt := s.route(f); rt.eject {
			if eject != nil {
				s.lose(q, f, queued)
				continue
			}
			eject = f
			if q == xyLocal && !queued {
				// A self-addressed local flit: the port's Front is not
				// good past a Deliver to that port, so it ejects from
				// the local queue instead.
				s.enqueue(q, f)
				s.local.Drop()
				eject, queued = s.queues[q].Front(), true
			}
			if queued {
				ejectQ = q
			}
		} else {
			if outTaken[rt.xy] {
				s.lose(q, f, queued)
				continue
			}
			outTaken[rt.xy] = true
			out := s.out[rt.xy].Write()
			*out = *f
			out.Meta.Hops++
			s.Stats.Routed.Inc()
			s.leave(q, queued)
		}
	}
	if eject != nil {
		s.Stats.Ejected.Inc()
		s.net.noteDelivered(eject, now)
		s.local.Deliver(eject, now)
		if ejectQ >= 0 {
			s.leave(ejectQ, true)
		}
	}
}

// leave removes input q's flit that won its output: a queue head, or the
// local port's flit in place (an arrival in place needs nothing: its
// register moves on at the commit).
func (s *XYSwitch) leave(q int, queued bool) {
	switch {
	case queued:
		s.queues[q].Drop()
		s.buffered--
	case q == xyLocal:
		s.local.Drop()
	}
}

// lose keeps input q's flit that found its output taken: a queue head
// stays, a flit in place is buffered.
func (s *XYSwitch) lose(q int, f *flit.Flit, queued bool) {
	if queued {
		return
	}
	s.enqueue(q, f)
	if q == xyLocal {
		s.local.Drop()
	}
}
