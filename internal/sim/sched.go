package sim

// Wake-driven stepping and fast-forward.
//
// Every registered component has a wake stamp, and Tick steps only the
// components whose stamp has arrived. A component goes to sleep on its own
// NextEvent answer, asked once from a Step that found nothing to do
// (Handle.Idle), and is woken by
//
//   - its stamp arriving,
//   - the commit of a register it consumes (Reg.Wakes, declared once at
//     wiring time), for the cycle the value becomes visible in, or
//   - an explicit Handle.Wake from whoever hands it work outside a
//     register: a queue push, a Deliver call.
//
// The contract has one rule: sleeping needs every input path to wake you;
// waking is always safe. Stepping is the ground truth — a woken component
// that finds nothing to do costs one Step and goes back to sleep — so only
// the decision to sleep needs an argument, and a component whose wake
// wiring is not complete simply never calls Idle and is stepped every
// cycle.
//
// A sleeping component's per-cycle bookkeeping (stall and busy counters,
// round-robin pointers) is owed, not lost: before its first Step after a
// sleep — and when a run loop returns or a Snapshot is taken while it is
// still asleep — it receives one Skipped(since, now) covering exactly the
// cycles it was not stepped on. Skipped may read only state that the
// component's own Step writes, because hand-offs made to a sleeper (a
// queue push, a Deliver) land before the notification does.
//
// Fast-forward is the all-asleep case: when every stamp lies in the
// future the run loops jump the clock to the earliest one instead of
// ticking cycles on which nothing would step. Components that are awake
// but said Idle from their last Step — those not asleep only because
// sleeping has not paid for them lately (see minNap), and plain
// NextEventers, which have no wake wiring and so are stepped on every
// ticked cycle — are asked for their next event at that moment, and only
// then. A component with neither capability is stepped every cycle and
// the engine never jumps. With fast-forward off (SetFastForward(false) on
// one engine, or a WithoutFastForward context handed to its run loops)
// nothing sleeps and nothing jumps: every component steps every cycle.
// That mode is the oracle the differential batteries in internal/scenario,
// internal/noc and the kernel packages compare the scheduler against,
// byte for byte. It is a property of the run, never of the process.
//
// The stamps are the whole truth, but Tick and fastForward do not read
// them one handle at a time. Each phase keeps an awake set, a bitset
// with bit i set when handles[p][i] steps on the next ticked cycle that
// reaches it, and the engine keeps a min-heap of the finite stamps of
// the sleepers not yet due, at most one entry per handle. A sleep clears
// the bit and pushes the stamp; a wake (Wake, a register commit) sets the
// bit and drops the entry; Tick first moves the stamps that have arrived
// into the sets. Tick then walks the set bits in registration order,
// reading the live word at every position and skipping a run of clear
// bits with one trailing-zero count, so a wake ahead of the cursor steps
// this cycle and one behind it the next — the rule above, without
// touching the handle of a component that does not step.

import (
	"context"
	"math"
	"math/bits"
)

// NoEvent is the NextEvent return value meaning "never": the component
// cannot act again until some other component or register wakes it.
const NoEvent = math.MaxInt64

// NextEventer is the optional component capability behind sleeping and
// fast-forward. NextEvent returns the earliest cycle >= now at which the
// component may do anything observable, assuming nothing wakes it in the
// meantime. Returning now (or anything <= now) means "keep stepping me";
// returning NoEvent means the component is fully passive until external
// input arrives.
type NextEventer interface {
	NextEvent(now int64) int64
}

// Skipper is the optional companion capability for components whose Step
// has unconditional per-cycle effects. When the component is not stepped
// on cycles from..to-1 (asleep, or jumped over), Skipped must apply
// exactly the state changes those Steps would have made — stall-counter
// increments, round-robin advances, and the like.
type Skipper interface {
	Skipped(from, to int64)
}

// Sleeper is implemented by components that take part in wake-driven
// stepping: Register hands them their scheduling handle through Bind, and
// they call its Idle from their idle branches. Implementing it is the
// declaration that every input path of the component wakes it (see the
// contract above); a component that cannot promise that for one of its
// attachments keeps the handle and just never calls Idle.
type Sleeper interface {
	NextEventer
	Bind(h *Handle)
}

// awake is Handle.since of a component that is not asleep.
const awake = -1

// Handle is one registered component's scheduling state. Components keep
// the handle Bind gave them to call Idle and Wake on themselves, and pass
// it to whoever feeds them so that the feeder can Wake them. All methods
// are safe on a nil handle (a component built without an engine, as unit
// tests do) and do nothing there.
type Handle struct {
	// wakeAt is the wake stamp: the component steps on every ticked cycle
	// >= wakeAt. An awake component's stamp lies in the past.
	wakeAt int64
	// since is the first cycle the component was not stepped on, while it
	// is asleep; awake otherwise.
	since int64
	// idleAt is the cycle of the latest Idle call; tryAt the first cycle
	// on which one is acted on (NoEvent while fast-forward is off) and
	// backoff how far the last short sleep pushed it (see nap and rouse).
	idleAt, tryAt, backoff int64
	c                      Component
	e                      *Engine
	ev                     NextEventer
	sk                     Skipper
	// phase and bit place the handle in the engine's awake sets
	// (handles[phase][bit]); heapAt is its index in the stamp heap, -1
	// when it has no entry there.
	phase, bit, heapAt int32
}

// Idle reports that the component's Step found nothing to do this cycle.
// When sleeping looks worth it (see nap), the engine asks its NextEvent
// for the next cycle on and, if the answer lies far enough ahead, stops
// stepping the component until then. Call it only from the component's
// own Step. On an always-step engine, or while the component is backing
// off, it costs a store and a compare.
func (h *Handle) Idle() {
	if h == nil {
		return
	}
	h.idleAt = h.e.cycle
	if h.idleAt >= h.tryAt {
		h.nap()
	}
}

// minNap is the shortest sleep worth taking, in cycles. Going to sleep
// and being roused cost as much as several idle Steps of a switch or a
// traffic source (a NextEvent call, the Skipped bookkeeping, Tick leaving
// its all-awake loop for one whose branches it cannot predict), so a
// sleep has to last to pay, and asking has to be rare where it does not:
//
//   - A component that knows it acts again within minNap cycles — a core
//     in a two-cycle compute burst, a traffic source between two close
//     injections — keeps stepping, and is not asked again before then.
//   - A component that cannot know, because it waits for input, finds out
//     by trying: a sleep that a wake cuts short of minNap cycles doubles
//     the time until its next try (minNap, 2·minNap … maxBackoff cycles),
//     and the first sleep that lasts resets it. A switch in a loaded
//     network thus tries once in maxBackoff cycles and otherwise steps as
//     if there were no scheduler; one on the kernel path, where a flit
//     passes every few hundred cycles, sleeps at once.
//
// Neither rule delays a jump: fastForward asks the awake-but-idle directly.
const (
	minNap     = 4
	maxBackoff = 64
)

// nap is the body of Idle.
func (h *Handle) nap() {
	if h.since != awake {
		return // a second Idle call from one Step
	}
	now := h.idleAt
	t := h.ev.NextEvent(now + 1)
	if t-now > minNap {
		h.wakeAt, h.since = t, now+1
		e := h.e
		e.asleep++
		e.awake[h.phase][h.bit>>6] &^= 1 << (h.bit & 63)
		if t != NoEvent {
			e.pushStamp(h)
		}
		return
	}
	h.tryAt = max(t, now+1)
}

// Wake makes the component step on the next cycle the engine reaches it:
// this cycle when the caller steps earlier in the cycle's order, the next
// one otherwise. Waking an awake component does nothing.
func (h *Handle) Wake() {
	if h != nil && h.wakeAt > h.e.cycle {
		h.e.wake(h, h.e.cycle)
	}
}

// wake sets h's stamp to at, which is no later than the next ticked
// cycle: its bit goes into the awake set and its heap entry, if it has
// one, is dropped.
func (e *Engine) wake(h *Handle, at int64) {
	h.wakeAt = at
	if h.heapAt >= 0 {
		e.dropStamp(h)
	}
	e.awake[h.phase][h.bit>>6] |= 1 << (h.bit & 63)
}

// stamp is one entry of the engine's stamp heap: a sleeper's wake stamp,
// kept beside the handle so that ordering the heap reads no handle.
type stamp struct {
	at int64
	h  *Handle
}

// pushStamp adds h's stamp to the heap; h has no entry yet.
func (e *Engine) pushStamp(h *Handle) {
	e.stamps = append(e.stamps, stamp{h.wakeAt, h})
	e.siftUp(len(e.stamps) - 1)
}

// dropStamp removes h's entry from the heap.
func (e *Engine) dropStamp(h *Handle) {
	i, last := int(h.heapAt), len(e.stamps)-1
	h.heapAt = -1
	moved := e.stamps[last]
	e.stamps = e.stamps[:last]
	if i < last {
		e.stamps[i] = moved
		e.siftDown(i)
		e.siftUp(i)
	}
}

// wakeDue moves every stamp that has arrived by cycle now from the heap
// into the awake sets.
func (e *Engine) wakeDue(now int64) {
	for len(e.stamps) > 0 && e.stamps[0].at <= now {
		h := e.stamps[0].h
		e.wake(h, h.wakeAt)
	}
}

// siftUp and siftDown restore the heap order around position i, keeping
// every moved entry's heapAt current.
func (e *Engine) siftUp(i int) {
	s := e.stamps
	x := s[i]
	for i > 0 {
		up := (i - 1) / 2
		if s[up].at <= x.at {
			break
		}
		s[i] = s[up]
		s[i].h.heapAt = int32(i)
		i = up
	}
	s[i] = x
	x.h.heapAt = int32(i)
}

func (e *Engine) siftDown(i int) {
	s := e.stamps
	x := s[i]
	for {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].at < s[c].at {
			c++
		}
		if x.at <= s[c].at {
			break
		}
		s[i] = s[c]
		s[i].h.heapAt = int32(i)
		i = c
	}
	s[i] = x
	x.h.heapAt = int32(i)
}

// rebuildAwake recomputes the awake sets and the stamp heap from the
// stamps alone, for Restore: a stamp that has arrived is a set bit, a
// finite one still ahead a heap entry.
func (e *Engine) rebuildAwake() {
	for _, s := range e.stamps {
		s.h.heapAt = -1
	}
	e.stamps = e.stamps[:0]
	for p := range numPhases {
		clear(e.awake[p])
		for _, h := range e.handles[p] {
			switch {
			case h.wakeAt <= e.cycle:
				e.wake(h, h.wakeAt)
			case h.wakeAt != NoEvent:
				e.pushStamp(h)
			}
		}
	}
}

// rouse ends a sleep just before the component's Step at cycle now,
// delivering the Skipped notification it is owed.
func (h *Handle) rouse(now int64) {
	if h.sk != nil && now > h.since {
		h.sk.Skipped(h.since, now)
	}
	if now-h.idleAt <= minNap { // idleAt is the cycle it went to sleep on
		h.backoff = min(max(2*h.backoff, minNap), maxBackoff)
		h.tryAt = now + h.backoff
	} else {
		h.backoff = 0
	}
	h.since = awake
	h.e.asleep--
}

// flushSkipped delivers the Skipped notifications owed to components that
// are still asleep, up to the current cycle, and leaves them asleep. Run
// loops call it on return and Snapshot before capturing, so state read
// between runs never depends on who happened to be asleep.
func (e *Engine) flushSkipped() {
	if e.asleep == 0 {
		return
	}
	for _, h := range e.sleepers {
		if h.since == awake || h.since >= e.cycle {
			continue
		}
		if h.sk != nil {
			h.sk.Skipped(h.since, e.cycle)
		}
		h.since = e.cycle
	}
}

// ffwdOffKey is the context key WithoutFastForward sets.
type ffwdOffKey struct{}

// WithoutFastForward returns a context under which every engine run loop
// it reaches (RunCtx, RunUntilCtx) first switches its engine's
// fast-forward off, so every component steps every cycle. It travels the
// path cancellation already takes to every engine, which makes it a
// setting of the run its caller owns: concurrent runs on other contexts
// keep sleeping and jumping. Results are byte-identical either way.
func WithoutFastForward(ctx context.Context) context.Context {
	return context.WithValue(ctx, ffwdOffKey{}, true)
}

// applyCtx switches fast-forward off when ctx carries WithoutFastForward.
// A context without it leaves the engine as it is, so an engine switched
// off through SetFastForward stays off.
func (e *Engine) applyCtx(ctx context.Context) {
	if !e.ffwdOff && ctx.Value(ffwdOffKey{}) != nil {
		e.SetFastForward(false)
	}
}

// SetFastForward enables or disables wake-driven stepping and
// fast-forward on this engine. Disabled, every component steps every
// cycle; components asleep at the time of the call are woken.
func (e *Engine) SetFastForward(enabled bool) {
	e.ffwdOff = !enabled
	for _, h := range e.sleepers {
		if enabled {
			h.tryAt = 0
		} else {
			h.tryAt = NoEvent
			h.Wake()
		}
	}
}

// CyclesSkipped returns the number of cycles the engine jumped over —
// cycles on which no component stepped. It is a pure performance counter:
// results are byte-identical whatever its value.
func (e *Engine) CyclesSkipped() int64 { return e.cyclesSkipped }

// fastForward jumps the clock to the earliest cycle anything can happen
// on (clamped to limit) when no register holds a value and every
// component is asleep or said Idle from its last Step. The sleeping have
// their stamps, the earliest at the top of the heap; the plain
// NextEventers and the sleepers still in the awake sets (those backing
// off) are asked. Called by the run loops before each Tick; while flits
// are moving it costs one compare.
func (e *Engine) fastForward(limit int64) {
	// A write made outside Tick (between run loops) sits in the slot of this
	// cycle's parity and must commit here, so it rules a jump out too.
	if !e.quiet || e.ffwdOff || e.alwaysOn > 0 || len(e.dirty) != 0 {
		return
	}
	now := e.cycle
	next := limit
	if len(e.stamps) > 0 {
		if e.stamps[0].at <= now {
			return // stamp arrived: tick
		}
		next = min(next, e.stamps[0].at)
	}
	for _, h := range e.polled {
		t := h.ev.NextEvent(now)
		if t <= now {
			return // may act this cycle: tick
		}
		next = min(next, t)
	}
	for p := range numPhases {
		polled := e.polledSet[p]
		for w, word := range e.awake[p] {
			for word &^= polled[w]; word != 0; word &= word - 1 {
				h := e.handles[p][w<<6|bits.TrailingZeros64(word)]
				if h.since != awake || h.idleAt != now-1 {
					return // woken, or had work on the last cycle: tick
				}
				t := h.ev.NextEvent(now)
				if t <= now {
					return // work handed over since it idled: tick
				}
				next = min(next, t)
			}
		}
	}
	if next <= now {
		return
	}
	for _, h := range e.polled {
		if h.sk != nil {
			h.sk.Skipped(now, next)
		}
	}
	for p := range numPhases {
		polled := e.polledSet[p]
		for w, word := range e.awake[p] {
			for word &^= polled[w]; word != 0; word &= word - 1 {
				if h := e.handles[p][w<<6|bits.TrailingZeros64(word)]; h.sk != nil {
					h.sk.Skipped(now, next)
				}
			}
		}
	}
	e.cyclesSkipped += next - now
	e.cycle = next
}
