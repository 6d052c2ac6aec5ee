package noc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// sharedPatterns are the patterns FuzzSharedSchedule draws from: uniform
// makes one destination draw per attempt, the other three none.
var sharedPatterns = []Pattern{Uniform, Transpose, Hotspot, Tornado}

// throttleCase is a sweep point whose sources throttle: queue_cap 1 and
// every source aimed at one endpoint (TestSharedScheduleThrottles holds it
// to that), so replay leaves the schedule on a throttled attempt.
var throttleCase = sharedInput{pattern: 2, fabric: 0, router: 0, rate: 61, seed: 5, queueCap: 1, warmup: 500, w1: 4000}

// sharedInput is one FuzzSharedSchedule input, in the fuzzer's types.
type sharedInput struct {
	pattern, fabric, router, rate uint8
	seed                          int64
	queueCap                      uint8
	warmup, w1, w2                uint16
}

// config resolves the input: a 4x4 endpoint grid, a sparse rate in
// 0.001..0.062 (rate·denseGap < 1), queue_cap 1..16, a warm-up under 2000
// cycles and one window, or two when w2 is non-zero. It returns two
// (fabric, router) points, so the second replays what the first recorded.
func (in sharedInput) config(t testing.TB) ([2]Topology, [2]RouterKind, MeasureConfig, []int64) {
	kinds := []TopologyKind{TopoTorus, TopoMesh, TopoCMesh}
	routers := AllRouters()
	var topos [2]Topology
	var rs [2]RouterKind
	for i := range 2 {
		topos[i] = mustKind(t, kinds[(int(in.fabric)+i)%len(kinds)], 4, 4)
		rs[i] = routers[(int(in.router)+i)%len(routers)]
	}
	queueCap := int(in.queueCap % 16)
	if queueCap == 0 {
		queueCap = 16
	}
	mc := MeasureConfig{
		Traffic: TrafficConfig{
			Pattern:     sharedPatterns[int(in.pattern)%len(sharedPatterns)],
			Rate:        float64(in.rate%62+1) / 1000,
			HotspotNode: 5,
			QueueCap:    queueCap,
		},
		Warmup: int64(in.warmup % 2000),
		Seed:   in.seed,
	}
	windows := []int64{int64(in.w1%5000) + 1}
	if in.w2 != 0 {
		windows = append(windows, int64(in.w2%5000)+1)
	}
	return topos, rs, mc, windows
}

// checkShared measures both points of in through one store and privately,
// with fast-forward on and off, and requires each shared-store point to
// equal the private one field for field. It returns the store.
func checkShared(t *testing.T, in sharedInput) *Schedules {
	t.Helper()
	topos, routers, mc, windows := in.config(t)
	s := NewSchedules()
	for _, ctx := range []context.Context{context.Background(), sim.WithoutFastForward(context.Background())} {
		for i, topo := range topos {
			mc.Router = routers[i]
			var got, want []Measurement
			if len(windows) == 1 {
				mc.Measure = windows[0]
				g, err := s.MeasureCtx(ctx, topo, mc)
				if err != nil {
					t.Fatal(err)
				}
				got = []Measurement{g}
			} else {
				var err error
				if got, err = s.MeasureWindowsCtx(ctx, topo, mc, windows); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range windows {
				wmc := mc
				wmc.Measure = w
				m, err := MeasureCtx(ctx, topo, wmc)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, m)
			}
			for wi := range windows {
				if got[wi] != want[wi] {
					t.Errorf("%v/%v %+v window %d: shared schedule diverges:\n  shared:  %+v\n  private: %+v",
						topo.Kind(), mc.Router, mc.Traffic, windows[wi], got[wi], want[wi])
				}
			}
		}
	}
	return s
}

// FuzzSharedSchedule is the differential oracle of the shared path: a
// point whose sources replay a store's schedules must measure exactly as
// one whose sources draw privately, on every pattern, router and fabric,
// when sources throttle and across measure_windows forks.
//
//	go test ./internal/noc -run '^$' -fuzz FuzzSharedSchedule -fuzztime 10s
func FuzzSharedSchedule(f *testing.F) {
	for _, in := range []sharedInput{
		throttleCase,
		{pattern: 0, fabric: 0, router: 0, rate: 1, seed: 1, queueCap: 15, warmup: 1000, w1: 4999},
		{pattern: 0, fabric: 1, router: 1, rate: 30, seed: 2, queueCap: 0, warmup: 0, w1: 3000, w2: 1200},
		{pattern: 1, fabric: 2, router: 2, rate: 45, seed: -7, queueCap: 3, warmup: 700, w1: 2500},
		{pattern: 3, fabric: 1, router: 3, rate: 20, seed: 1 << 40, queueCap: 1, warmup: 1500, w1: 800, w2: 4000},
		{pattern: 2, fabric: 2, router: 1, rate: 61, seed: 9, queueCap: 1, warmup: 300, w1: 2000, w2: 3500},
	} {
		f.Add(in.pattern, in.fabric, in.router, in.rate, in.seed, in.queueCap, in.warmup, in.w1, in.w2)
	}
	f.Fuzz(func(t *testing.T, pattern, fabric, router, rate uint8, seed int64, queueCap uint8, warmup, w1, w2 uint16) {
		checkShared(t, sharedInput{pattern, fabric, router, rate, seed, queueCap, warmup, w1, w2})
	})
}

// TestSharedScheduleThrottles holds the seed corpus's throttling case to
// its purpose: its private run throttles, so the shared run must leave its
// schedules on a throttled attempt, and still measure the same.
func TestSharedScheduleThrottles(t *testing.T) {
	topos, routers, mc, windows := throttleCase.config(t)
	mc.Router, mc.Measure = routers[0], windows[0]
	var nodes []*TrafficNode
	r, err := newRig(context.Background(), topos[0], mc.Router, mc.Warmup, func(i int) (LocalPort, sim.Component) {
		tn := NewTrafficNode(i, topos[0], mc.Traffic, mc.Seed)
		nodes = append(nodes, tn)
		return tn, tn
	})
	if err != nil {
		t.Fatal(err)
	}
	r.e.Run(mc.Measure)
	var throttled int64
	for _, tn := range nodes {
		throttled += tn.Throttled.Value()
	}
	if throttled == 0 {
		t.Fatalf("the throttling case never throttled (%+v)", mc.Traffic)
	}
	if s := checkShared(t, throttleCase); s.fellBack.Load() == 0 {
		t.Errorf("%d throttled attempts, yet no source left its schedule", throttled)
	}
}

// TestSharedScheduleIdleSweep runs noc-idle's sweep — 3 fabrics x 4
// routers x uniform x rates {0.001, 0.002} — in a short window through one
// store on two workers. The store records each rate's 16 sources once,
// not once per point, no point falls back to private draws, and every
// point equals its private measurement.
func TestSharedScheduleIdleSweep(t *testing.T) {
	type point struct {
		topo Topology
		mc   MeasureConfig
	}
	var points []point
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		for _, router := range AllRouters() {
			for _, rate := range []float64{0.001, 0.002} {
				points = append(points, point{mustKind(t, kind, 4, 4), MeasureConfig{
					Router:  router,
					Traffic: TrafficConfig{Pattern: Uniform, Rate: rate},
					Warmup:  1000, Measure: 30_000, Seed: 1,
				}})
			}
		}
	}
	s := NewSchedules()
	got := make([]Measurement, len(points))
	errs := make([]error, len(points))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = s.MeasureCtx(context.Background(), points[i].topo, points[i].mc)
			}
		}()
	}
	for i := range points {
		next <- i
	}
	close(next)
	wg.Wait()
	if n := s.built.Load(); n != 2*16 {
		t.Errorf("the store recorded %d source schedules, want 2 x 16", n)
	}
	if n := s.fellBack.Load(); n != 0 {
		t.Errorf("%d sources fell back to private draws, want 0", n)
	}
	for i, p := range points {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := mustMeasure(t, p.topo, p.mc); got[i] != want {
			t.Errorf("%v/%v rate %g: shared %+v, private %+v", p.topo.Kind(), p.mc.Router, p.mc.Traffic.Rate, got[i], want)
		}
	}
}

// TestScheduleBudget asks a store for a billion cycles at the highest
// sparse rate: the record stops at the store's attempt budget, in bounded
// time and memory, and the sources past it draw privately.
func TestScheduleBudget(t *testing.T) {
	if size := unsafe.Sizeof(attempt{}); size > 16 {
		t.Errorf("an attempt takes %d B, want at most 16", size)
	}
	topo := mustKind(t, TopoTorus, 4, 4)
	mc := MeasureConfig{Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.06}, Seed: 3}
	s := NewSchedules()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	group, err := s.group(context.Background(), topo, mc, 1_000_000_000)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, sc := range group {
		recorded += len(sc.attempts)
	}
	if recorded > maxScheduleAttempts || s.left != 0 {
		t.Errorf("recorded %d attempts with %d of the budget left; want at most %d and all of it reserved",
			recorded, s.left, maxScheduleAttempts)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*maxScheduleAttempts+1<<20 {
		t.Errorf("recording allocated %d B, want at most %d", alloc, 16*maxScheduleAttempts+1<<20)
	}
	if elapsed > 10*time.Second {
		t.Errorf("recording took %v", elapsed)
	}
	if len(group[len(group)-1].attempts) != 0 {
		t.Error("the last source has a record past the budget")
	}
}

// TestScheduleBudgetFallbackExact runs a point through a store whose budget
// covers only part of its sources: the rest, and the one whose record the
// budget cut short, draw privately from their record's end, and the point
// measures exactly as it does privately.
func TestScheduleBudgetFallbackExact(t *testing.T) {
	topo := mustKind(t, TopoTorus, 4, 4)
	mc := MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.01},
		Warmup:  500, Measure: 5000, Seed: 11,
	}
	s := NewSchedules()
	s.left = 300
	got, err := s.MeasureCtx(context.Background(), topo, mc)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMeasure(t, topo, mc); got != want {
		t.Errorf("shared %+v, private %+v", got, want)
	}
	if s.fellBack.Load() == 0 {
		t.Error("no source fell back, yet the budget cannot hold every record")
	}
}

// TestScheduleReplayEqualsPrivateGate drives a source replaying its record
// and a private one through the same gate calls — every cycle for even
// ids, from one drawn attempt to the next for odd ones — past the end of a
// short record, with every seventh attempt throttled in the second pass:
// each next answer, gate answer and generator state after an attempt must
// agree.
func TestScheduleReplayEqualsPrivateGate(t *testing.T) {
	topo := mustKind(t, TopoTorus, 4, 4)
	tc := TrafficConfig{Pattern: Uniform, Rate: 0.01}
	const seed, until = 21, 20_000
	for _, throttleEvery := range []int{0, 7} {
		for _, horizon := range []int64{0, 2500, until + ffwdHorizon} {
			s := NewSchedules()
			group, err := s.record(context.Background(), topo, tc, scheduleKey{seed, tc.Rate, tc.Pattern, topo.NumEndpoints(), horizon}, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			for id := range group {
				priv, shared := NewTrafficNode(id, topo, tc, seed), NewTrafficNode(id, topo, tc, seed)
				shared.inj.sched = &group[id]
				attempts := 0
				for now := int64(0); now < until; now++ {
					if id%2 == 1 {
						np, ns := priv.inj.next(now), shared.inj.next(now)
						if np != ns {
							t.Fatalf("horizon %d source %d: next(%d) = %d private, %d shared", horizon, id, now, np, ns)
						}
						now = np
					}
					gp, gs := priv.inj.gate(now), shared.inj.gate(now)
					if gp != gs {
						t.Fatalf("horizon %d source %d: gate(%d) = %v private, %v shared", horizon, id, now, gp, gs)
					}
					if !gp {
						continue
					}
					if attempts++; throttleEvery > 0 && attempts%throttleEvery == 0 {
						shared.inj.detach()
					} else {
						priv.destination()
						shared.destination()
					}
					if *priv.rng != *shared.rng {
						t.Fatalf("horizon %d source %d: generator state differs after the attempt at %d", horizon, id, now)
					}
				}
			}
		}
	}
}

// TestSharedScheduleKey runs points that differ in one field of the
// schedule key each — seed, rate, pattern, endpoint count, run length —
// through one store: none may replay another's record.
func TestSharedScheduleKey(t *testing.T) {
	base := MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.02},
		Warmup:  200, Measure: 3000, Seed: 4,
	}
	square, wide := mustKind(t, TopoTorus, 4, 4), mustKind(t, TopoTorus, 8, 4)
	vary := []func(*MeasureConfig){
		func(*MeasureConfig) {},
		func(mc *MeasureConfig) { mc.Seed = 5 },
		func(mc *MeasureConfig) { mc.Traffic.Rate = 0.03 },
		func(mc *MeasureConfig) { mc.Traffic.Pattern = Transpose },
		func(mc *MeasureConfig) { mc.Traffic.Pattern = Tornado },
		func(mc *MeasureConfig) { mc.Measure = 6000 },
	}
	s := NewSchedules()
	for _, topo := range []Topology{square, wide} {
		for i, v := range vary {
			mc := base
			v(&mc)
			if mc.Traffic.Pattern == Transpose && topo == wide {
				continue // transpose needs a square grid
			}
			got, err := s.MeasureCtx(context.Background(), topo, mc)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustMeasure(t, topo, mc); got != want {
				t.Errorf("%v variant %d: shared %+v, private %+v", topo, i, got, want)
			}
		}
	}
}

// TestScheduleSnapshotRestoresSchedule snapshots a replaying source part of
// the way through a gap, leaves its schedule on a throttled attempt, and
// restores the snapshot: the restored source must replay again, in step
// with a private one put through the same calls.
func TestScheduleSnapshotRestoresSchedule(t *testing.T) {
	topo := mustKind(t, TopoTorus, 4, 4)
	tc := TrafficConfig{Pattern: Uniform, Rate: 0.01}
	const seed, id = 8, 3
	s := NewSchedules()
	group, err := s.record(context.Background(), topo, tc, scheduleKey{seed, tc.Rate, tc.Pattern, topo.NumEndpoints(), 1 << 20}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	priv, shared := NewTrafficNode(id, topo, tc, seed), NewTrafficNode(id, topo, tc, seed)
	shared.inj.sched = &group[id]
	nodes := []*TrafficNode{priv, shared}
	attempt := func(now int64) int64 {
		c := make([]int64, 2)
		for i, n := range nodes {
			c[i] = n.inj.next(now)
			if !n.inj.gate(c[i]) {
				t.Fatalf("node %d: no attempt at %d", i, c[i])
			}
		}
		if c[0] != c[1] {
			t.Fatalf("next attempt at %d private, %d shared", c[0], c[1])
		}
		return c[0]
	}
	c := attempt(0)
	priv.destination()
	shared.destination()
	for _, n := range nodes { // part of the next gap drawn, no attempt in it
		if n.inj.draw(c + 1); n.inj.nextInject >= 0 {
			t.Fatalf("an attempt at %d; pick a seed with a longer gap", c+1)
		}
	}
	snaps := []any{priv.Snapshot(), shared.Snapshot()}
	attempt(c + 2)
	shared.inj.detach() // throttled: no destination draw
	for i, n := range nodes {
		n.Restore(snaps[i])
	}
	if shared.inj.sched == nil {
		t.Fatal("Restore left the source without its schedule")
	}
	for now := c + 2; now < 50_000; now++ {
		now = attempt(now)
		priv.destination()
		shared.destination()
		if *priv.rng != *shared.rng {
			t.Fatalf("generator state differs after the attempt at %d", now)
		}
	}
}

// TestScheduleRecordCancels cancels a point whose record would walk a
// trillion cycles: the recording polls the context, so the point returns
// the context's error in bounded time, and so does the next point that
// waits on the same record.
func TestScheduleRecordCancels(t *testing.T) {
	topo := mustKind(t, TopoTorus, 4, 4)
	mc := MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: Uniform, Rate: 1e-4},
		Measure: 1_000_000_000_000, Seed: 2,
	}
	s := NewSchedules()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	for range 2 {
		if _, err := s.MeasureCtx(ctx, topo, mc); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the context's deadline", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled points returned after %v", elapsed)
	}
}
