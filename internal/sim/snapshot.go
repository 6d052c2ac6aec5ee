package sim

// Checkpoint/fork: Snapshot captures the complete simulation state —
// engine clock, register file, every component's state and the
// scheduler's wake stamps — and Restore
// reinstates it on the same engine, so sweep points sharing a warmup
// prefix can fork from one warm snapshot instead of re-simulating the
// warmup per point. Snapshots are cheap in-memory value copies, not
// serialized bytes: the fork always happens inside one process, on the
// engine that produced the snapshot.

import (
	"errors"
	"fmt"
	"reflect"
)

// Checkpointable is the optional component capability behind
// checkpoint/fork. Snapshot returns an opaque value copy of the
// component's complete mutable state; Restore reinstates a value
// previously returned by the same component's Snapshot. Components that
// hold a coroutine (a PE running its program) cannot implement it — their
// engines refuse to snapshot, and the sweep layers fall back to
// re-simulating warmup.
type Checkpointable interface {
	Snapshot() any
	Restore(snap any)
}

// regSnapFns is one register's snapshot/restore closure pair, registered
// alongside its commit function by NewReg.
type regSnapFns struct {
	snap    func() any
	restore func(any)
}

// Snapshot is a point-in-time copy of an engine's complete state. It is
// only meaningful to the engine that produced it.
type Snapshot struct {
	cycle int64
	regs  []any
	comps []any
	// Scheduler bookkeeping: which components were asleep and until when.
	// It decides who steps, never what a step computes, so SameState
	// leaves it (and the two counters) out.
	cyclesSkipped int64
	quiet         bool
	asleep        int
	sched         []schedSnap
}

// schedSnap is one component's scheduling handle: wake stamp,
// asleep-since cycle, latest Idle call and backoff.
type schedSnap struct{ wakeAt, since, idleAt, tryAt, backoff int64 }

// Cycle returns the engine clock at the time of the snapshot.
func (s *Snapshot) Cycle() int64 { return s.cycle }

// SameState reports whether two snapshots hold the same simulated state:
// clock, register file and every component's state. Scheduler bookkeeping
// is not compared, so a snapshot of an engine that steps everything and
// one of its wake-driven twin are the same state exactly when sleeping
// changed nothing a Step can observe.
func (s *Snapshot) SameState(o *Snapshot) bool {
	return s.cycle == o.cycle && reflect.DeepEqual(s.regs, o.regs) && reflect.DeepEqual(s.comps, o.comps)
}

// Snapshot captures the engine's state between cycles, after delivering
// the Skipped notifications owed to sleeping components. It fails if any
// registered component does not implement Checkpointable, or if called
// mid-cycle with uncommitted register writes.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if len(e.dirty) != 0 {
		return nil, errors.New("sim: snapshot with uncommitted register writes (only between cycles)")
	}
	e.flushSkipped()
	s := &Snapshot{cycle: e.cycle, cyclesSkipped: e.cyclesSkipped, quiet: e.quiet, asleep: e.asleep}
	s.regs = make([]any, len(e.regSnaps))
	for i, r := range e.regSnaps {
		s.regs[i] = r.snap()
	}
	n := len(e.handles[PhaseNode]) + len(e.handles[PhaseSwitch])
	s.comps, s.sched = make([]any, 0, n), make([]schedSnap, 0, n)
	for p := 0; p < numPhases; p++ {
		for _, h := range e.handles[p] {
			cp, ok := h.c.(Checkpointable)
			if !ok {
				return nil, fmt.Errorf("sim: component %s is not checkpointable", h.c.Name())
			}
			s.comps = append(s.comps, cp.Snapshot())
			s.sched = append(s.sched, schedSnap{h.wakeAt, h.since, h.idleAt, h.tryAt, h.backoff})
		}
	}
	return s, nil
}

// Restore reinstates a snapshot previously taken from this same engine
// (same registers, same components, in the same order).
func (e *Engine) Restore(s *Snapshot) error {
	if len(s.regs) != len(e.regSnaps) {
		return fmt.Errorf("sim: snapshot has %d registers, engine has %d (foreign snapshot?)",
			len(s.regs), len(e.regSnaps))
	}
	n := 0
	for p := 0; p < numPhases; p++ {
		n += len(e.handles[p])
	}
	if len(s.comps) != n {
		return fmt.Errorf("sim: snapshot has %d components, engine has %d (foreign snapshot?)",
			len(s.comps), n)
	}
	e.cycle, e.cyclesSkipped, e.quiet, e.asleep = s.cycle, s.cyclesSkipped, s.quiet, s.asleep
	e.dirty = e.dirty[:0]
	for i, r := range e.regSnaps {
		r.restore(s.regs[i])
	}
	i := 0
	for p := 0; p < numPhases; p++ {
		for _, h := range e.handles[p] {
			h.c.(Checkpointable).Restore(s.comps[i])
			ss := s.sched[i]
			h.wakeAt, h.since, h.idleAt, h.tryAt, h.backoff = ss.wakeAt, ss.since, ss.idleAt, ss.tryAt, ss.backoff
			i++
		}
	}
	e.rebuildAwake()
	if e.ffwdOff {
		e.SetFastForward(false) // nothing stays asleep on an always-step engine
	}
	return nil
}
