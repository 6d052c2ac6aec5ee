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
// of examples/scenarios/router-ablation.json, and the buffer-flits metric
// of the repository root's BenchmarkDeflectionVsXY, which measures through
// MeasureCtx).
type XYSwitch struct {
	routerPorts

	queues  [NumPorts + 1]queue.FIFO[flit.Flit] // unbounded rings; +1: local injection queue
	rrStart int

	buffered int // total occupancy across all queues
	peakBuf  int

	Stats XYStats
}

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

// Step implements sim.Component; it runs in sim.PhaseSwitch.
func (s *XYSwitch) Step(now int64) {
	// Accept arrivals into input queues.
	for p, in := range s.in {
		if in == nil {
			continue
		}
		if f := in.Read(); f != nil {
			s.queues[p].Push(*f)
			s.buffered++
		}
	}
	// Accept one local injection per cycle.
	if f, ok := s.local.TryPull(); ok {
		s.Stats.Injected.Inc()
		s.net.noteInjected()
		s.queues[NumPorts].Push(f)
		s.buffered++
	}
	if s.buffered > 0 {
		s.forward(now)
	} else {
		s.wake.Idle()
	}
	// The round-robin pointer moves every cycle, busy or not; Skipped owes
	// a sleeper exactly that.
	s.rrStart = (s.rrStart + 1) % len(s.queues)
}

// forward records the occupancy watermarks and moves the queue heads on.
func (s *XYSwitch) forward(now int64) {
	for q := range s.queues {
		if n := s.queues[q].Len(); n > s.Stats.PeakQ {
			s.Stats.PeakQ = n
		}
	}
	if s.buffered > s.peakBuf {
		s.peakBuf = s.buffered
	}

	// Each output port (and the ejection port) forwards at most one flit
	// per cycle. Round-robin over input queues for fairness; only the
	// head of each queue competes (FIFO order per input preserves
	// in-order delivery per path, the property wormhole/XY designs rely
	// on).
	var outTaken [NumPorts]bool
	ejectTaken := false
	nq := len(s.queues)
	for i := 0; i < nq; i++ {
		q := (s.rrStart + i) % nq
		f := s.queues[q].Front()
		if f == nil {
			continue
		}
		if rt := s.route(f); rt.eject {
			if ejectTaken {
				continue
			}
			ejectTaken = true
			s.Stats.Ejected.Inc()
			s.net.noteDelivered(f, now)
			s.local.Deliver(*f, now)
		} else {
			if outTaken[rt.xy] {
				continue
			}
			outTaken[rt.xy] = true
			out := s.out[rt.xy].Write()
			*out = *f
			out.Meta.Hops++
			s.Stats.Routed.Inc()
		}
		s.queues[q].Drop()
		s.buffered--
	}
}
