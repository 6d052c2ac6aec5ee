// Package sim provides the deterministic, cycle-accurate simulation engine
// that replaces the paper's SystemC models.
//
// The engine is a two-phase synchronous clock: on every cycle each
// registered component's Step method runs exactly once, grouped into
// ordered phases, and then all registers commit. Inter-component state that
// must behave like a hardware register (visible one cycle after it is
// written) lives in Reg values; intra-cycle producer/consumer hand-off
// (e.g. a switch pulling a flit from its local node in the same cycle) is
// expressed by placing the producer in an earlier phase than the consumer.
//
// Determinism: components run in registration order within a phase, all
// randomness flows through explicitly seeded RNGs, and no map iteration
// affects behaviour. Two runs of the same configuration produce identical
// cycle counts, which the integration tests assert.
//
// # Performance
//
// Tick is the simulator's innermost loop, so its constant factors multiply
// across the millions of cycles behind each design-space point. Two
// mechanisms keep it proportional to the work a cycle actually holds.
//
// Wake-driven stepping (sched.go): every registered component has a wake
// stamp and Tick steps only those whose stamp has arrived. A component
// that found nothing to do says so from its own idle branch
// (Handle.Idle); the engine then asks its NextEvent once and stops
// stepping it until that cycle, until a register it consumes commits
// (Reg.Wakes, folded into the commit itself), or until whoever hands it
// work calls Handle.Wake. While nothing is asleep Tick runs the loop an
// engine without a scheduler would. Otherwise it reads no stamp of a
// component that does not step: each phase keeps an awake set, one bit
// per component, and the sleepers' stamps wait in a min-heap until they
// arrive, so a ticked cycle costs the set bits it walks, not the
// components registered — a system in which one core of twelve has work
// pays for one Step and one bit, not a check of every handle. Sleeping
// has to pay for itself, so a component in a loaded network all but stops
// asking (see minNap). When every stamp lies in the future the run loops
// jump the clock to the earliest one, the top of the heap — idle
// fast-forward is the all-asleep case of the same mechanism, not a second
// one.
//
// The commit pass uses a dirty list instead of scanning all registers:
// a write enqueues the register's index on the engine's per-cycle dirty
// list (a pointer-free int32 slice, so the append has no GC write
// barrier), and Tick commits only the registers written during the cycle.
// A register is two slots picked by the parity of the clock: the cycle's
// reads see one, its write fills the other, so a commit moves no value —
// it stamps the register with the one cycle during which the slot just
// written is observable, through the value-independent header every
// register starts with, without a call. A register that holds a value but
// is not rewritten must still drain — links do not hold flits across idle
// cycles — which is implemented lazily: Valid, Get and Read compare that
// stamp against the engine clock, so an idle register expires without
// ever being touched again. Read and Write hand out pointers into the
// slots, so a consumer of a large value (a switch routing a flit) works
// on it where it sits and copies it once, into the next register.
//
// Run `go test ./internal/noc -bench BenchmarkTick -run '^$'` to measure
// the per-cycle cost on the paper's 4x4 mesh, `bash bench/run.sh --trace 1`
// for every layer's number, and see the repository doc.go Performance
// section for profiling the full experiment binaries.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
)

// Component is a clocked hardware block. Step is called once per cycle with
// the current cycle number.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Step advances the component by one cycle.
	Step(now int64)
}

// Phases used by the MEDEA system. Nodes (PEs, bridges, MPMMU) run before
// switches so that a switch can pull a freshly produced flit in the same
// cycle (1 flit/cycle injection as in the paper).
const (
	PhaseNode   = 0
	PhaseSwitch = 1
	numPhases   = 2
)

// Engine drives a set of components cycle by cycle.
type Engine struct {
	// comps holds the registered components in registration order within
	// each phase, and handles their scheduling handles, index for index
	// (see sched.go). While nothing is asleep Tick walks comps alone, the
	// same loop an engine without a scheduler would run.
	comps   [numPhases][]Component
	handles [numPhases][]*Handle
	// regs holds every register's header in creation order; a register is
	// addressed by its index. The dirty list stores indices rather than
	// pointers so that enqueueing a register is a pointer-free int32 append
	// (no GC write barrier on the per-cycle path).
	regs []*regHeader
	// regSnaps holds the registers' snapshot/restore closures, parallel to
	// regs; used only by Snapshot/Restore, never on the tick path.
	regSnaps []regSnapFns
	// dirty holds the registers written during the current cycle (enqueued
	// by Reg.Write); only these commit at the end of the cycle. spare
	// recycles the previous cycle's backing array so steady-state ticking
	// does not allocate.
	dirty []int32
	spare []int32
	cycle int64

	// Scheduler state (see sched.go). sleepers are the components that
	// manage their own sleep (Sleeper), asleep how many of them are
	// asleep right now; awake holds each phase's awake set and stamps the
	// heap of the finite stamps still ahead. polled are the plain
	// NextEventers, which the engine itself puts to sleep for the length
	// of a jump; they never leave the awake sets, and polledSet marks
	// their bits there so that fastForward asks them from this list, not
	// through the sets. alwaysOn counts components with neither
	// capability, whose presence rules jumps out. quiet tracks whether
	// the previous Tick committed nothing, i.e. no register holds an
	// observable value in the current cycle.
	sleepers      []*Handle
	polled        []*Handle
	polledSet     [numPhases][]uint64
	awake         [numPhases][]uint64
	stamps        []stamp
	asleep        int
	alwaysOn      int
	quiet         bool
	ffwdOff       bool
	cyclesSkipped int64
	// ctxCheckAt is the next cycle at which the context-aware run loops
	// poll for cancellation. It lives on the engine, not in the loops, so
	// a job composed of many short RunCtx calls still observes
	// cancellation within ctxCheckInterval cycles overall.
	ctxCheckAt int64
}

// addReg registers a register's header plus its snapshot/restore pair and
// returns the register's index.
func (e *Engine) addReg(h *regHeader, snap func() any, restore func(any)) int32 {
	e.regs = append(e.regs, h)
	e.regSnaps = append(e.regSnaps, regSnapFns{snap: snap, restore: restore})
	return int32(len(e.regs) - 1)
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{quiet: true}
}

// Register adds a component to the given phase. Components in lower phases
// step before components in higher phases within one cycle. A component
// implementing Sleeper receives its scheduling handle here.
func (e *Engine) Register(phase int, c Component) {
	if phase < 0 || phase >= numPhases {
		panic(fmt.Sprintf("sim: invalid phase %d", phase))
	}
	h := &Handle{e: e, c: c, since: awake, idleAt: -1,
		phase: int32(phase), bit: int32(len(e.handles[phase])), heapAt: -1}
	if e.ffwdOff {
		h.tryAt = NoEvent
	}
	h.ev, _ = c.(NextEventer)
	h.sk, _ = c.(Skipper)
	e.comps[phase] = append(e.comps[phase], c)
	e.handles[phase] = append(e.handles[phase], h)
	if h.bit&63 == 0 {
		e.awake[phase] = append(e.awake[phase], 0)
		e.polledSet[phase] = append(e.polledSet[phase], 0)
	}
	e.wake(h, 0)
	if s, ok := c.(Sleeper); ok {
		e.sleepers = append(e.sleepers, h)
		s.Bind(h)
	} else if h.ev != nil {
		e.polled = append(e.polled, h)
		e.polledSet[phase][h.bit>>6] |= 1 << (h.bit & 63)
	} else {
		e.alwaysOn++
	}
}

// Now returns the current cycle number.
func (e *Engine) Now() int64 { return e.cycle }

// Tick runs one full cycle: every component whose wake stamp has arrived
// steps, phases in order, then the dirty registers commit.
func (e *Engine) Tick() {
	now := e.cycle
	if e.asleep == 0 {
		// Nobody to skip. A component that goes to sleep during this
		// cycle has stepped already; one woken again later in it keeps
		// its place in line for the next cycle.
		for p := 0; p < numPhases; p++ {
			for _, c := range e.comps[p] {
				c.Step(now)
			}
		}
	} else {
		if len(e.stamps) > 0 && e.stamps[0].at <= now {
			e.wakeDue(now)
		}
		for p := 0; p < numPhases; p++ {
			set, hs := e.awake[p], e.handles[p]
			for i := 0; i < len(hs); i++ {
				// The word is read again at every position, after the Steps
				// before it, which may have woken a component further on; a
				// run of clear bits is skipped in one count.
				if word := set[i>>6] >> (i & 63); word&1 == 0 {
					if word == 0 {
						i |= 63 // nothing awake in the rest of the word
						continue
					}
					i += bits.TrailingZeros64(word)
				}
				h := hs[i]
				if h.since != awake {
					h.rouse(now)
				}
				h.c.Step(now)
			}
		}
	}
	// Commit the dirty list: exactly the registers written this cycle.
	// Unwritten registers expire by themselves (their validity stamp stops
	// matching the clock), so they cost nothing here. Commit order follows
	// write order, which is deterministic because components step in
	// registration order; commits are independent per register, so order
	// does not affect behaviour. A commit also wakes the register's
	// declared consumers for the cycle the value is visible in.
	visibleAt := e.cycle + 1
	regs := e.regs
	for _, i := range e.dirty {
		h := regs[i]
		h.validAt, h.written = visibleAt, false
		for _, w := range h.wakes {
			if w.wakeAt > visibleAt {
				e.wake(w, visibleAt)
			}
		}
	}
	// An empty dirty list means no register holds an observable value next
	// cycle — the precondition for a jump (see sched.go).
	e.quiet = len(e.dirty) == 0
	e.dirty, e.spare = e.spare[:0], e.dirty[:0]
	e.cycle++
}

// ErrTimeout is returned by RunUntilCtx when the predicate does not become
// true within the cycle budget.
var ErrTimeout = errors.New("sim: cycle budget exhausted")

// ctxCheckInterval is how many cycles elapse between context polls in the
// context-aware run loops: frequent enough that a canceled simulation
// stops within microseconds of wall time, rare enough that the check is
// invisible on the tick path.
const ctxCheckInterval = 1024

// pollCtx checks for cancellation when the engine clock has reached the
// next poll point. The poll point is engine state, not loop state: a job
// composed of many short RunCtx calls advances toward the same poll point
// across calls and still observes cancellation within ctxCheckInterval
// cycles overall (a sequence of sub-interval runs previously never
// polled).
func (e *Engine) pollCtx(ctx context.Context) error {
	if e.cycle < e.ctxCheckAt {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled at cycle %d: %w", e.cycle, err)
	}
	e.ctxCheckAt = e.cycle + ctxCheckInterval
	return nil
}

// RunUntilCtx ticks the engine until done() reports true or maxCycles
// additional cycles have elapsed, in which case it returns ErrTimeout.
// done is evaluated before each tick, so a predicate that is already true
// costs zero cycles. The context is polled every ctxCheckInterval cycles,
// so a canceled or deadline-exceeded run stops in bounded time
// (mid-simulation, not at run granularity) and returns the context's
// error. A WithoutFastForward context switches the engine's fast-forward
// off first.
func (e *Engine) RunUntilCtx(ctx context.Context, done func() bool, maxCycles int64) error {
	e.applyCtx(ctx)
	defer e.flushSkipped()
	deadline := e.cycle + maxCycles
	for !done() {
		if e.cycle >= deadline {
			return fmt.Errorf("%w after %d cycles", ErrTimeout, maxCycles)
		}
		if err := e.pollCtx(ctx); err != nil {
			return err
		}
		e.fastForward(deadline)
		if e.cycle >= deadline {
			continue // jumped to the deadline: re-check done, then time out
		}
		e.Tick()
	}
	return nil
}

// Run ticks the engine for n cycles (fewer ticks when fast-forward jumps
// the clock; the engine still ends exactly n cycles later). Like every run
// loop it returns with all pending Skipped notifications delivered, so
// counters read between runs are exact.
func (e *Engine) Run(n int64) {
	defer e.flushSkipped()
	end := e.cycle + n
	for e.cycle < end {
		e.fastForward(end)
		if e.cycle >= end {
			break
		}
		e.Tick()
	}
}

// RunCtx ticks the engine for n cycles, polling the context every
// ctxCheckInterval cycles; it returns the context's error if canceled
// mid-run, leaving the engine at the cycle it stopped on. A
// WithoutFastForward context switches the engine's fast-forward off first.
func (e *Engine) RunCtx(ctx context.Context, n int64) error {
	e.applyCtx(ctx)
	defer e.flushSkipped()
	end := e.cycle + n
	for e.cycle < end {
		if err := e.pollCtx(ctx); err != nil {
			return err
		}
		e.fastForward(end)
		if e.cycle >= end {
			break
		}
		e.Tick()
	}
	return nil
}

// regHeader is the part of a register the commit pass touches. It does
// not depend on the value type, so Tick commits through it directly.
type regHeader struct {
	// validAt is the single cycle during which the register is observable:
	// a write committed at the end of cycle N is visible during cycle N+1
	// and expires by itself afterwards (links do not hold flits across
	// idle cycles), without the register ever appearing on a second dirty
	// list.
	validAt int64
	written bool
	// wakes are the handles of the components that consume this register
	// (see Wakes); each commit wakes them for the cycle the value shows.
	wakes []*Handle
}

// Reg is a single hardware register holding a value of type T with a valid
// flag. Reads observe the value committed at the end of the previous cycle;
// writes become visible after the next commit. This gives order-independent
// semantics between components in the same phase.
type Reg[T any] struct {
	regHeader
	eng *Engine
	idx int32 // index into the engine's register table
	// slot[c&1] is what cycle c reads and slot[(c+1)&1] what it writes, so
	// the value written during one cycle is in place for the next and a
	// reader's pointer stays good while the producer fills the other slot.
	slot [2]T
	name string
}

// NewReg creates a register attached to the engine.
func NewReg[T any](e *Engine, name string) *Reg[T] {
	r := &Reg[T]{eng: e, name: name}
	r.validAt = -1
	r.idx = e.addReg(&r.regHeader, r.snapshot, r.restore)
	return r
}

// regSnap is one register's checkpointed state: the last committed value
// (still held by the slot of the cycle it showed in, expired or not) and
// the single cycle during which it is observable. Pending writes are
// excluded by construction — Snapshot refuses to run with a non-empty
// dirty list.
type regSnap[T any] struct {
	cur     T
	validAt int64
}

// snapshot captures the register for Engine.Snapshot.
func (r *Reg[T]) snapshot() any { return regSnap[T]{cur: r.slot[r.validAt&1], validAt: r.validAt} }

// restore reinstates a snapshot taken from this same register.
func (r *Reg[T]) restore(s any) {
	rs := s.(regSnap[T])
	r.slot[rs.validAt&1], r.validAt, r.written = rs.cur, rs.validAt, false
}

// Valid reports whether the register currently holds a value.
func (r *Reg[T]) Valid() bool { return r.validAt == r.eng.cycle }

// Get returns the current value and whether it is valid.
func (r *Reg[T]) Get() (T, bool) {
	if p := r.Read(); p != nil {
		return *p, true
	}
	var zero T
	return zero, false
}

// Read returns the current value in place, or nil when the register holds
// none. The pointer is good for the rest of the cycle, whatever the
// producer writes meanwhile; the value is the reader's to look at, not to
// change.
func (r *Reg[T]) Read() *T {
	if now := r.eng.cycle; r.validAt == now {
		return &r.slot[now&1]
	}
	return nil
}

// Set writes a value that becomes visible after the next commit. Writing a
// register twice in one cycle is a wiring bug and panics.
func (r *Reg[T]) Set(v T) { *r.Write() = v }

// Write is Set in place: it marks the register written and returns the
// slot the next cycle reads, for the caller to fill before its Step
// returns. The slot still holds the value of two cycles ago.
func (r *Reg[T]) Write() *T {
	if r.written {
		panic("sim: register " + r.name + " written twice in one cycle")
	}
	r.written = true
	r.eng.dirty = append(r.eng.dirty, r.idx)
	return &r.slot[(r.eng.cycle+1)&1]
}

// Wakes declares h's component a consumer of the register: every commit
// wakes it for the cycle the value is visible in. A component may sleep
// only once every register it reads is declared this way; call it once
// per consumer at wiring time. A nil handle is ignored.
func (r *Reg[T]) Wakes(h *Handle) {
	if h != nil {
		r.wakes = append(r.wakes, h)
	}
}

// FuncComponent adapts a function to the Component interface, handy in
// tests and small glue blocks.
type FuncComponent struct {
	ComponentName string
	Fn            func(now int64)
}

// Name implements Component.
func (f *FuncComponent) Name() string { return f.ComponentName }

// Step implements Component.
func (f *FuncComponent) Step(now int64) { f.Fn(now) }
