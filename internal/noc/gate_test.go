package noc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
)

// floatCoin is the draw injectGate used to make every cycle: the top 53
// bits of one draw as a float64 in [0, 1), compared against p.
func floatCoin(r *sim.RNG, p float64) bool {
	return float64(r.Uint64()>>11)/(1<<53) < p
}

// perCycleSource is the reference a pre-drawing, sleeping source is held
// to: stepped every cycle, it makes that cycle's draws and no other — the
// burst modulator's step, then (while on) the injection coin, then (only
// if the coin came up heads and the queue has room) the destination draws.
type perCycleSource struct {
	id        int
	topo      Topology
	rate      float64
	burst     *BurstConfig
	rng, brng *sim.RNG
	on, begun bool
	dest      func(*sim.RNG) int
	outQ      *queue.FIFO[flit.Flit]
	throttled int64
}

func (s *perCycleSource) Name() string { return "per-cycle-source" }

func (s *perCycleSource) Step(now int64) {
	if b := s.burst; b != nil {
		switch {
		case !s.begun:
			s.begun, s.on = true, floatCoin(s.brng, b.Duty())
		case s.on:
			s.on = !floatCoin(s.brng, 1/b.MeanOn)
		default:
			s.on = floatCoin(s.brng, 1/b.MeanOff)
		}
		if !s.on {
			return
		}
	}
	if !floatCoin(s.rng, s.rate) {
		return
	}
	if s.outQ.Full() {
		s.throttled++
		return
	}
	dst := s.dest(s.rng)
	if dst == s.id {
		return
	}
	dx, dy := s.topo.EndpointCoord(dst)
	f := flit.Flit{DstX: uint8(dx), DstY: uint8(dy)}
	f.Meta.InjectCycle = now
	s.outQ.Push(f)
}

func (s *perCycleSource) TryPull() (flit.Flit, bool) { return s.outQ.Pop() }
func (s *perCycleSource) Deliver(flit.Flit, int64)   {}
func (s *perCycleSource) Pending() int               { return s.outQ.Len() }

// injection is what the network sees of one injection.
type injection struct {
	cycle int64
	x, y  uint8
}

// gateDrain stands in for the source's switch: it pulls one flit every
// period cycles, slowly enough that a one-slot queue is often still full
// when the next coin comes up heads, and sleeps in between like a switch.
type gateDrain struct {
	src interface {
		LocalPort
		Pending() int
	}
	period int64
	got    []injection
	wake   *sim.Handle
}

func (d *gateDrain) Name() string       { return "gate-drain" }
func (d *gateDrain) Bind(h *sim.Handle) { d.wake = h }

func (d *gateDrain) Step(now int64) {
	if now%d.period == 0 {
		if f, ok := d.src.TryPull(); ok {
			d.got = append(d.got, injection{f.Meta.InjectCycle, f.DstX, f.DstY})
			return
		}
	}
	d.wake.Idle()
}

func (d *gateDrain) NextEvent(now int64) int64 {
	if d.src.Pending() == 0 {
		return sim.NoEvent
	}
	return (now + d.period - 1) / d.period * d.period
}

func (d *gateDrain) Snapshot() any    { return len(d.got) }
func (d *gateDrain) Restore(snap any) { d.got = d.got[:snap.(int)] }

// TestGateStreamEqualsPerCycleDraw holds injectGate's whole contract — a
// source that draws ahead, sleeps, and draws a sparse gap as one run of
// integer coins — to the per-cycle float reference above: the same
// injections on the same cycles to the same destinations, the same
// attempts throttled at a full queue (which draw no destination), and the
// same generator states once the source has no cycle drawn ahead. Rates
// cover sparse sources, both sides of the denseGap edge and a dense one;
// the steady rows are where draw is a single Tails call. Each TrafficNode
// row also takes a Snapshot with gating drawn ahead, runs past the next
// injection, and Restores before running on.
func TestGateStreamEqualsPerCycleDraw(t *testing.T) {
	const id, seed = 5, 11
	topo, err := NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		rate    float64
		bursty  bool
		service bool
	}
	var rows []row
	for _, rate := range []float64{0.001, 0.05, 0.0625, 0.4} {
		rows = append(rows, row{rate: rate}, row{rate: rate, bursty: true})
	}
	// Steady sources either side of the mean gap from which sim.RNG.Tails
	// walks a gap as jump-ahead chains (its chainGap, 64 coins), and the
	// rates noc-idle runs, where it does.
	for _, rate := range []float64{0.025, 0.0125, 0.002} {
		rows = append(rows, row{rate: rate})
	}
	rows = append(rows, row{rate: 0.05, service: true}, row{rate: 0.001, service: true})
	for _, r := range rows {
		t.Run(fmt.Sprintf("rate=%g/bursty=%v/service=%v", r.rate, r.bursty, r.service), func(t *testing.T) {
			var burst *BurstConfig
			if r.bursty {
				burst = &BurstConfig{MeanOn: 8, MeanOff: 24}
			}
			ref := &perCycleSource{
				id: id, topo: topo, rate: r.rate, burst: burst,
				rng:  sim.NewRNG(seed ^ id*0x9E37),
				brng: sim.NewRNG(seed ^ id*0x9E37 ^ 0x5B75),
				outQ: queue.NewFIFO[flit.Flit](1),
			}
			var (
				src interface {
					sim.Component
					LocalPort
					InjectWaker
					Pending() int
				}
				gate      *injectGate
				rng       *sim.RNG
				throttled func() int64
				tn        *TrafficNode
			)
			if r.service {
				cfg := ServiceMeasureConfig{
					Servers: 4, ArrivalRate: r.rate, HotspotSkew: 0.3,
					QueueCap: 1, Burst: burst, Seed: seed,
				}
				board := newSvcBoard()
				c := newSvcClient(id, topo, cfg, board)
				src, gate, rng, throttled = c, &c.inj, c.rng, board.throttled.Value
				first := topo.NumEndpoints() - cfg.Servers
				ref.dest = func(rng *sim.RNG) int {
					if floatCoin(rng, cfg.HotspotSkew) {
						return first
					}
					return first + rng.Intn(cfg.Servers)
				}
			} else {
				tn = NewTrafficNode(id, topo, TrafficConfig{Pattern: Uniform, Rate: r.rate, QueueCap: 1, Burst: burst}, seed)
				src, gate, rng, throttled = tn, &tn.inj, tn.rng, tn.Throttled.Value
				ref.dest = func(rng *sim.RNG) int {
					d := rng.Intn(topo.NumEndpoints() - 1)
					if d >= id {
						d++
					}
					return d
				}
			}
			period := int64(2 / r.rate)
			cycles := int64(300 / r.rate)

			all := sim.NewEngine()
			all.SetFastForward(false)
			refDrain := &gateDrain{src: ref, period: period}
			all.Register(sim.PhaseNode, ref)
			all.Register(sim.PhaseSwitch, refDrain)

			woken := sim.NewEngine()
			woken.SetFastForward(true)
			drain := &gateDrain{src: src, period: period}
			woken.Register(sim.PhaseNode, src)
			woken.Register(sim.PhaseSwitch, drain)
			src.WakeOnInject(drain.wake)

			drawnAhead := func() bool { return gate.drawnThrough >= woken.Now() }
			woken.Run(cycles / 3)
			if tn != nil {
				// Both ends of the round trip lie in a gap, with its coins
				// drawn: Restore has to take the later gap's draws back.
				midGap := func() {
					for !gate.dense && !drawnAhead() {
						woken.Run(1)
					}
				}
				midGap()
				snap, err := woken.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				for sent := tn.Sent.Value(); tn.Sent.Value() == sent; {
					woken.Run(1)
				}
				midGap()
				if err := woken.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			woken.Run(cycles - woken.Now())
			for drawnAhead() {
				woken.Run(1)
			}
			all.Run(woken.Now())

			if !slices.Equal(drain.got, refDrain.got) {
				t.Errorf("injections differ from the per-cycle reference's: %d against %d", len(drain.got), len(refDrain.got))
				for i := range min(len(drain.got), len(refDrain.got)) {
					if drain.got[i] != refDrain.got[i] {
						t.Errorf("first at #%d: %+v, reference %+v", i, drain.got[i], refDrain.got[i])
						break
					}
				}
			}
			if src.Pending() != ref.Pending() || throttled() != ref.throttled {
				t.Errorf("queue holds %d with %d attempts throttled; reference %d with %d",
					src.Pending(), throttled(), ref.Pending(), ref.throttled)
			}
			if *rng != *ref.rng {
				t.Errorf("generator state differs from the per-cycle reference's at cycle %d", woken.Now())
			}
			if burst != nil && *gate.burst.rng != *ref.brng {
				t.Errorf("burst generator state differs from the per-cycle reference's at cycle %d", woken.Now())
			}
			// The run must have been through what it claims to check.
			if len(refDrain.got) < 20 || ref.throttled == 0 {
				t.Errorf("degenerate run: %d injections, %d attempts on a full queue", len(refDrain.got), ref.throttled)
			}
			if !gate.dense && woken.CyclesSkipped() == 0 {
				t.Error("the source never slept through a jump")
			}
		})
	}
}
