package noc

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Schedules is a store of injection schedules shared by the points of one
// sweep (DESIGN.md, "Idle sources"). Until its queue throttles, a steady
// sparse source's gating and destination draws depend only on the seed,
// its endpoint id, the rate, the pattern and the endpoint count — never on
// the router or the fabric — so every point that shares those draws the
// same stream. The store draws it once per key, with the sources' own
// draw code, and records each injection attempt as its cycle and the
// generator state right after its coin; each point's sources then replay
// the record with a cursor instead of walking the coins again.
//
// Results are byte-identical to private draws: a source whose attempt
// throttles (which skips the destination draw the record assumed), or that
// runs past the end of its record, takes the recorded generator state and
// draws privately from there on. A nil *Schedules is the private path.
//
// A store is safe for concurrent use. It keeps every schedule until it is
// dropped, within a budget of maxScheduleAttempts attempts.
type Schedules struct {
	mu     sync.Mutex
	groups map[scheduleKey]*scheduleGroup
	left   int // attempts the budget has not yet reserved

	built    atomic.Int64 // source schedules recorded
	fellBack atomic.Int64 // sources that left a schedule for private draws
}

// maxScheduleAttempts bounds one store's recorded attempts (16 B each, so
// 16 MiB): a sweep of any length and rate costs at most that much beside
// its points, and a source past the budget draws privately.
const maxScheduleAttempts = 1 << 20

// NewSchedules returns an empty store.
func NewSchedules() *Schedules {
	return &Schedules{groups: map[scheduleKey]*scheduleGroup{}, left: maxScheduleAttempts}
}

// scheduleKey is everything a sparse source's stream depends on, bar its
// endpoint id (a group holds one schedule per endpoint). horizon is the
// last cycle recorded.
type scheduleKey struct {
	seed      int64
	rate      float64
	pattern   Pattern
	endpoints int
	horizon   int64
}

type scheduleGroup struct {
	once    sync.Once
	sources []schedule // by endpoint id
	err     error      // the recording's context error
}

// attempt is one recorded injection attempt: the cycle whose coin came up
// heads and the generator state right after that coin.
type attempt struct {
	cycle int64
	rng   sim.RNG
}

// schedule is one source's recorded stream: every attempt through cycle
// end, and the generator state a private gate holds once it has drawn
// through end with every attempt's destination drawn.
type schedule struct {
	attempts []attempt
	end      int64
	rng      sim.RNG
	store    *Schedules
}

// group returns the shared schedules of mc's sources over cycles
// 0..length-1, recording them on first use, or nil when the sources do
// not draw ahead one coin a cycle (bursty or dense ones) and so draw
// privately.
func (s *Schedules) group(ctx context.Context, topo Topology, mc MeasureConfig, length int64) ([]schedule, error) {
	tc := mc.Traffic
	if s == nil || tc.Burst != nil || tc.Rate*denseGap >= 1 {
		return nil, nil
	}
	// A source draws up to ffwdHorizon cycles ahead of the clock, which
	// stops at length.
	k := scheduleKey{mc.Seed, tc.Rate, tc.Pattern, topo.NumEndpoints(), length + ffwdHorizon}
	s.mu.Lock()
	g := s.groups[k]
	var budget int
	if g == nil {
		g = &scheduleGroup{}
		s.groups[k] = g
		budget = s.left
		if want := expectedAttempts(k); want < float64(budget) {
			budget = int(want)
		}
		s.left -= budget
	}
	s.mu.Unlock()
	g.once.Do(func() { g.sources, g.err = s.record(ctx, topo, tc, k, budget) })
	return g.sources, g.err
}

// expectedAttempts presizes a group: the mean attempt count of its
// sources plus six standard deviations. Should a group draw more, its last
// sources' records end early and they finish privately.
func expectedAttempts(k scheduleKey) float64 {
	mean := k.rate * float64(k.horizon+1) * float64(k.endpoints)
	return math.Ceil(mean+6*math.Sqrt(mean)) + 1
}

// record draws every source of key k through k.horizon with the traffic
// node's own gate and destination code, into one array of budget
// attempts. It polls ctx every recordPoll cycles of a source.
func (s *Schedules) record(ctx context.Context, topo Topology, tc TrafficConfig, k scheduleKey, budget int) ([]schedule, error) {
	slab := make([]attempt, 0, budget)
	out := make([]schedule, k.endpoints)
	for id := range out {
		t := NewTrafficNode(id, topo, tc, k.seed)
		g := &t.inj
		start := len(slab)
		sc := schedule{end: -1, rng: *t.rng, store: s}
		var poll int64
		for {
			if g.drawnThrough >= poll {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				poll = g.drawnThrough + recordPoll
			}
			c := g.draw(min(poll, k.horizon))
			if g.nextInject < 0 { // tails through the poll or the horizon
				if g.drawnThrough < k.horizon {
					continue
				}
				sc.end, sc.rng = g.drawnThrough, *t.rng
				break
			}
			if len(slab) == cap(slab) {
				break // budget spent: the record ends at its last attempt
			}
			slab = append(slab, attempt{c, *t.rng})
			g.nextInject = -1
			t.destination()
			sc.end, sc.rng = c, *t.rng
		}
		sc.attempts = slab[start:len(slab):len(slab)]
		out[id] = sc
		s.built.Add(1)
	}
	return out, nil
}

// recordPoll is how many cycles of one source record draws between
// context polls: about a millisecond of coins at the sparsest rates.
const recordPoll = 1 << 20

// replay answers injectGate.draw(limit) from the gate's schedule. It
// reports false once the record cannot answer, having handed the gate the
// recorded state at its end to draw privately from.
func (g *injectGate) replay(limit int64) (int64, bool) {
	sc := g.sched
	if g.cursor < len(sc.attempts) {
		a := &sc.attempts[g.cursor]
		if a.cycle > limit {
			g.drawnThrough = limit
			return limit + 1, true
		}
		g.cursor++
		*g.rng = a.rng
		g.drawnThrough, g.nextInject = a.cycle, a.cycle
		return a.cycle, true
	}
	if limit <= sc.end {
		g.drawnThrough = limit
		return limit + 1, true
	}
	g.drawnThrough, *g.rng = sc.end, sc.rng
	g.detach()
	return 0, false
}

// detach leaves the schedule for private draws, from the generator state
// the gate holds now.
func (g *injectGate) detach() {
	if g.sched != nil {
		g.sched.store.fellBack.Add(1)
		g.sched = nil
	}
}
