package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The scheduler oracle. Tick and fastForward find the components that
// step through the awake sets and the stamp heap; refSched below keeps the
// same stamps and nothing else, and on every ticked cycle steps each
// component whose stamp has arrived, read when the scan reaches it, in
// registration order. Random component graphs run on both must step the
// same components on the same cycles, deliver the same Skipped ranges and
// jump over the same cycles.

// schedScript is a random component graph over both phases. Some of its
// components are plain NextEventers, with an event every period cycles;
// the others are sleepers. Each has a sleeper it may wake and a register
// it may write, which one or two sleepers consume. What a component does
// when stepped is a hash of (seed, id, cycle), so two schedulers that step
// it on the same cycles see it do the same things.
type schedScript struct {
	seed      uint64
	phase     []int
	period    []int64 // 0 for a sleeper
	target    []int   // the sleeper a wake action wakes; -1 when none
	consumers [][]int
}

// scriptHash is splitmix64's finaliser.
func scriptHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func newSchedScript(seed uint64, n int) *schedScript {
	s := &schedScript{seed: seed, phase: make([]int, n), period: make([]int64, n),
		target: make([]int, n), consumers: make([][]int, n)}
	r := seed
	draw := func(k int) int { r = scriptHash(r); return int(r % uint64(k)) }
	var sleepers []int
	for i := range n {
		s.phase[i] = draw(numPhases)
		if draw(8) == 0 {
			s.period[i] = int64(20 + draw(200))
		} else {
			sleepers = append(sleepers, i)
		}
	}
	other := func(i int) int {
		j := sleepers[draw(len(sleepers))]
		if j == i {
			return -1
		}
		return j
	}
	for i := range n {
		s.target[i] = -1
		if len(sleepers) == 0 {
			continue
		}
		s.target[i] = other(i)
		for range 1 + draw(2) {
			if j := other(i); j >= 0 && !slices.Contains(s.consumers[i], j) {
				s.consumers[i] = append(s.consumers[i], j)
			}
		}
	}
	return s
}

// action is what component id does when stepped on cycle now: wake its
// target, write its register, and either keep working or call Idle with
// its next event now, near (within minNap), far, or never.
func (s *schedScript) action(id int, now int64) (wake, write, idle bool, next int64) {
	r := scriptHash(s.seed ^ scriptHash(uint64(id)<<40^uint64(now)))
	wake, write = r%8 == 0, r>>3%8 == 0
	if s.period[id] != 0 && now%s.period[id] != 0 {
		return false, false, false, now // a plain NextEventer acts on its events only
	}
	switch k, d := r>>6%20, int64(r>>16%256); {
	case k < 2:
		return wake, write, false, now
	case k < 4:
		return wake, write, true, now
	case k < 7:
		return wake, write, true, now + 1 + d%minNap
	case k < 16:
		return wake, write, true, now + minNap + 1 + d
	default:
		return wake, write, true, NoEvent
	}
}

// scriptWorld is the scheduler a scriptComp talks to.
type scriptWorld interface {
	idle(id int)
	wake(id int)
	write(id int)
}

// stepEvent is one Step: the cycle and the component.
type stepEvent struct {
	cycle int64
	id    int
}

type scriptComp struct {
	id      int
	s       *schedScript
	w       scriptWorld
	next    int64
	trace   *[]stepEvent
	skipped [][2]int64
}

func (c *scriptComp) Name() string { return fmt.Sprintf("c%d", c.id) }

func (c *scriptComp) Step(now int64) {
	*c.trace = append(*c.trace, stepEvent{now, c.id})
	wake, write, idle, next := c.s.action(c.id, now)
	c.next = next
	if wake && c.s.target[c.id] >= 0 {
		c.w.wake(c.s.target[c.id])
	}
	if write {
		c.w.write(c.id)
	}
	if idle && c.s.period[c.id] == 0 {
		c.w.idle(c.id)
	}
}

func (c *scriptComp) NextEvent(now int64) int64 {
	if p := c.s.period[c.id]; p != 0 {
		return (now + p - 1) / p * p
	}
	if c.next == NoEvent {
		return NoEvent
	}
	return max(c.next, now)
}

func (c *scriptComp) Skipped(from, to int64) { c.skipped = append(c.skipped, [2]int64{from, to}) }
func (c *scriptComp) Snapshot() any          { return c.next }
func (c *scriptComp) Restore(s any)          { c.next = s.(int64) }

// scriptSleeper is a scriptComp that takes part in wake-driven stepping.
type scriptSleeper struct{ *scriptComp }

func (c scriptSleeper) Bind(h *Handle) { c.w.(*engineWorld).handles[c.id] = h }

// engineWorld runs a script on an Engine.
type engineWorld struct {
	e       *Engine
	comps   []*scriptComp
	handles []*Handle
	regs    []*Reg[int]
	trace   []stepEvent
	// heapOver counts the Idle calls after which the stamp heap held more
	// entries than there were sleepers.
	heapOver int
}

func newEngineWorld(s *schedScript) *engineWorld {
	n := len(s.phase)
	w := &engineWorld{e: NewEngine(), handles: make([]*Handle, n), regs: make([]*Reg[int], n)}
	for i := range n {
		c := &scriptComp{id: i, s: s, w: w, trace: &w.trace}
		w.comps = append(w.comps, c)
		w.regs[i] = NewReg[int](w.e, c.Name())
		if s.period[i] != 0 {
			w.e.Register(s.phase[i], c)
		} else {
			w.e.Register(s.phase[i], scriptSleeper{c})
		}
	}
	for i, cs := range s.consumers {
		for _, j := range cs {
			w.regs[i].Wakes(w.handles[j])
		}
	}
	return w
}

func (w *engineWorld) idle(id int) {
	w.handles[id].Idle()
	if len(w.e.stamps) > w.e.asleep {
		w.heapOver++
	}
}
func (w *engineWorld) wake(id int)  { w.handles[id].Wake() }
func (w *engineWorld) write(id int) { w.regs[id].Set(id) }

// refHandle is a component's stamp and the bookkeeping around it, as
// Handle holds them.
type refHandle struct {
	c                                     *scriptComp
	polled                                bool
	wakeAt, since, idleAt, tryAt, backoff int64
}

// refSched is the reference scheduler: Handle's rules (Idle, nap, rouse,
// Wake, commit wakes, fastForward, flushSkipped, SetFastForward) over
// stamps alone, every one of them read on every ticked cycle.
type refSched struct {
	s             *schedScript
	cycle         int64
	phases        [numPhases][]*refHandle
	hs            []*refHandle
	comps         []*scriptComp
	trace         []stepEvent
	written       []int
	asleep        int
	quiet         bool
	ffwdOff       bool
	cyclesSkipped int64
}

func newRefSched(s *schedScript) *refSched {
	r := &refSched{s: s, quiet: true}
	for i := range s.phase {
		c := &scriptComp{id: i, s: s, w: r, trace: &r.trace}
		h := &refHandle{c: c, polled: s.period[i] != 0, since: awake, idleAt: -1}
		r.comps = append(r.comps, c)
		r.hs = append(r.hs, h)
		r.phases[s.phase[i]] = append(r.phases[s.phase[i]], h)
	}
	return r
}

func (r *refSched) idle(id int) {
	h := r.hs[id]
	h.idleAt = r.cycle
	if h.idleAt < h.tryAt || h.since != awake {
		return
	}
	now := h.idleAt
	t := h.c.NextEvent(now + 1)
	if t-now > minNap {
		h.wakeAt, h.since = t, now+1
		r.asleep++
		return
	}
	h.tryAt = max(t, now+1)
}

func (r *refSched) wake(id int) {
	if h := r.hs[id]; h.wakeAt > r.cycle {
		h.wakeAt = r.cycle
	}
}

func (r *refSched) write(id int) { r.written = append(r.written, id) }

func (r *refSched) tick() {
	now := r.cycle
	for p := range numPhases {
		for _, h := range r.phases[p] {
			if h.wakeAt > now {
				continue
			}
			if h.since != awake {
				if now > h.since {
					h.c.Skipped(h.since, now)
				}
				if now-h.idleAt <= minNap {
					h.backoff = min(max(2*h.backoff, minNap), maxBackoff)
					h.tryAt = now + h.backoff
				} else {
					h.backoff = 0
				}
				h.since = awake
				r.asleep--
			}
			h.c.Step(now)
		}
	}
	for _, i := range r.written {
		for _, j := range r.s.consumers[i] {
			r.hs[j].wakeAt = min(r.hs[j].wakeAt, now+1)
		}
	}
	r.quiet = len(r.written) == 0
	r.written = r.written[:0]
	r.cycle++
}

func (r *refSched) fastForward(limit int64) {
	if !r.quiet || r.ffwdOff {
		return
	}
	now, next := r.cycle, limit
	for _, h := range r.hs {
		t := h.wakeAt
		if h.polled || h.since == awake {
			if !h.polled && h.idleAt != now-1 {
				return
			}
			t = h.c.NextEvent(now)
		}
		if t <= now {
			return
		}
		next = min(next, t)
	}
	if next <= now {
		return
	}
	for _, h := range r.hs {
		if h.since == awake {
			h.c.Skipped(now, next)
		}
	}
	r.cyclesSkipped += next - now
	r.cycle = next
}

func (r *refSched) flushSkipped() {
	for _, h := range r.hs {
		if h.since != awake && h.since < r.cycle {
			h.c.Skipped(h.since, r.cycle)
			h.since = r.cycle
		}
	}
}

func (r *refSched) run(n int64) {
	end := r.cycle + n
	for r.cycle < end {
		r.fastForward(end)
		if r.cycle < end {
			r.tick()
		}
	}
	r.flushSkipped()
}

func (r *refSched) setFastForward(enabled bool) {
	r.ffwdOff = !enabled
	for _, h := range r.hs {
		if h.polled {
			continue
		}
		if enabled {
			h.tryAt = 0
		} else {
			h.tryAt = NoEvent
			r.wake(h.c.id)
		}
	}
}

// snapshot returns a function that puts the scheduler and its components
// back to where they are now.
func (r *refSched) snapshot() func() {
	r.flushSkipped()
	hs, next := make([]refHandle, len(r.hs)), make([]int64, len(r.hs))
	for i, h := range r.hs {
		hs[i], next[i] = *h, h.c.next
	}
	cycle, asleep, quiet, skipped := r.cycle, r.asleep, r.quiet, r.cyclesSkipped
	return func() {
		for i, h := range r.hs {
			*h, h.c.next = hs[i], next[i]
		}
		r.cycle, r.asleep, r.quiet, r.cyclesSkipped = cycle, asleep, quiet, skipped
		if r.ffwdOff {
			r.setFastForward(false)
		}
	}
}

// scheduleRuns is the run both schedulers go through: runs of a few
// hundred cycles, a Snapshot, a stretch run twice around a Restore, and a
// stretch with fast-forward off.
func scheduleRuns(run func(int64), snapshot func() func(), setFastForward func(bool)) {
	run(300)
	restore := snapshot()
	run(400)
	restore()
	run(400)
	setFastForward(false)
	run(200)
	setFastForward(true)
	run(500)
}

// checkSchedule runs the script of seed and n components on the engine
// and on refSched and compares what they did. It returns the cycles the
// engine jumped over.
func checkSchedule(t testing.TB, seed uint64, n int) int64 {
	t.Helper()
	s := newSchedScript(seed, n)
	ew, ref := newEngineWorld(s), newRefSched(s)
	e := ew.e
	scheduleRuns(e.Run, func() func() {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
	}, e.SetFastForward)
	scheduleRuns(ref.run, ref.snapshot, ref.setFastForward)

	if i := firstDiff(ew.trace, ref.trace); i >= 0 {
		t.Fatalf("seed %d, %d components: step %d differs: engine %v, reference %v (of %d and %d steps)",
			seed, n, i, stepAt(ew.trace, i), stepAt(ref.trace, i), len(ew.trace), len(ref.trace))
	}
	for i := range ew.comps {
		if got, want := ew.comps[i].skipped, ref.comps[i].skipped; !slices.Equal(got, want) {
			t.Fatalf("seed %d, %d components: c%d Skipped %v, reference %v", seed, n, i, got, want)
		}
	}
	if got, want := e.CyclesSkipped(), ref.cyclesSkipped; got != want {
		t.Fatalf("seed %d, %d components: CyclesSkipped %d, reference %d", seed, n, got, want)
	}
	if ew.heapOver != 0 {
		t.Fatalf("seed %d, %d components: the stamp heap outnumbered the sleepers after %d Idle calls", seed, n, ew.heapOver)
	}
	if len(e.stamps) > e.asleep {
		t.Fatalf("seed %d, %d components: %d stamps in the heap for %d sleepers", seed, n, len(e.stamps), e.asleep)
	}
	return e.CyclesSkipped()
}

// firstDiff returns the first index at which a and b differ, -1 if none.
func firstDiff(a, b []stepEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// stepAt returns step i of a trace, for a failure message.
func stepAt(tr []stepEvent, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "none"
}

// TestAwakeSetMatchesStampScan runs graphs of 2 to 130 components — up to
// three words of a phase's awake set — on the engine and on the stamp-scan
// reference.
func TestAwakeSetMatchesStampScan(t *testing.T) {
	var skipped int64
	for _, n := range []int{2, 3, 5, 9, 17, 40, 63, 64, 65, 100, 127, 128, 129, 130} {
		for seed := range uint64(3) {
			skipped += checkSchedule(t, seed*1000+uint64(n), n)
		}
	}
	if skipped == 0 {
		t.Error("no graph ever fast-forwarded: the oracle does not reach the jump")
	}
}

// FuzzSchedule is TestAwakeSetMatchesStampScan over any seed and size.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(126))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		checkSchedule(t, seed, 2+int(n)%129)
	})
}
