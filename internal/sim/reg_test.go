package sim

import (
	"strings"
	"testing"
)

// A value written in cycle N shows in cycle N+1 and in no other, through
// Get and through Read alike, whichever slot N+1 reads.
func TestRegVisibleForOneCycleBothForms(t *testing.T) {
	for _, start := range []int64{0, 1} { // write on an even and on an odd cycle
		e := NewEngine()
		r := NewReg[int](e, "r")
		e.Run(start)
		*r.Write() = 7
		if _, ok := r.Get(); ok || r.Read() != nil || r.Valid() {
			t.Fatalf("start %d: write visible in the cycle it was made", start)
		}
		e.Tick()
		if v, ok := r.Get(); !ok || v != 7 {
			t.Fatalf("start %d: Get() = %d, %v one cycle on; want 7, true", start, v, ok)
		}
		if p := r.Read(); p == nil || *p != 7 {
			t.Fatalf("start %d: Read() = %v one cycle on; want 7", start, p)
		}
		e.Tick()
		if _, ok := r.Get(); ok || r.Read() != nil || r.Valid() {
			t.Fatalf("start %d: value still visible two cycles on", start)
		}
	}
}

// The pointer a consumer took stays good while the producer writes the
// register again in the same cycle: they are different slots.
func TestRegReadSurvivesSameCycleWrite(t *testing.T) {
	e := NewEngine()
	r := NewReg[int](e, "r")
	r.Set(1)
	e.Tick()
	held := r.Read()
	*r.Write() = 2
	if *held != 1 {
		t.Fatalf("held value = %d after the producer wrote; want 1", *held)
	}
	if v, _ := r.Get(); v != 1 {
		t.Fatalf("Get() = %d after the producer wrote; want 1", v)
	}
	e.Tick()
	if v, ok := r.Get(); !ok || v != 2 {
		t.Fatalf("Get() = %d, %v in the next cycle; want 2, true", v, ok)
	}
}

func TestRegDoubleInPlaceWritePanicsWithName(t *testing.T) {
	e := NewEngine()
	r := NewReg[int](e, "link 3.E")
	r.Write()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "link 3.E") || !strings.Contains(msg, "written twice") {
			t.Errorf("second Write panicked with %q; want the register's name and \"written twice\"", msg)
		}
	}()
	r.Write()
}

// pipeRig is a checkpointable engine whose one component forwards the
// clock through a register and sums what arrives, writing only on cycles
// writeWhen admits so that the register can be left to expire.
func pipeRig(writeWhen func(now int64) bool) (*Engine, *Reg[int64], *ckptComp) {
	e := NewEngine()
	r := NewReg[int64](e, "r")
	c := &ckptComp{}
	c.ComponentName = "ckpt"
	c.Fn = func(now int64) {
		if v, ok := r.Get(); ok {
			c.acc += v
		}
		if writeWhen(now) {
			r.Set(now)
		}
	}
	e.Register(PhaseNode, c)
	return e, r, c
}

// Snapshots taken on an odd and on an even cycle restore the visible
// value, also after the register has gone on to commit on the other
// parity.
func TestSnapshotRestoreEitherParity(t *testing.T) {
	for _, at := range []int64{10, 11} {
		e, r, c := pipeRig(func(int64) bool { return true })
		e.Run(at)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		e.Run(21) // an odd distance: the register last committed on the other parity
		accA := c.acc
		if err := e.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if v, ok := r.Get(); !ok || v != at-1 {
			t.Fatalf("snapshot at %d: register after restore = %d, %v; want %d, true", at, v, ok, at-1)
		}
		if p := r.Read(); p == nil || *p != at-1 {
			t.Fatalf("snapshot at %d: Read() after restore = %v; want %d", at, p, at-1)
		}
		e.Run(21)
		if c.acc != accA {
			t.Errorf("snapshot at %d: fork diverged: acc = %d, want %d", at, c.acc, accA)
		}
	}
}

// An expired register snapshots the value it last committed (SameState
// compares it), and restoring it leaves the register expired.
func TestSnapshotOfExpiredRegister(t *testing.T) {
	e, r, _ := pipeRig(func(now int64) bool { return now == 4 })
	e.Run(9)
	if r.Valid() {
		t.Fatal("register written at cycle 4 still valid at cycle 9")
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.regs[0].(regSnap[int64]); got.cur != 4 || got.validAt != 5 {
		t.Fatalf("expired register snapshot = %+v; want the last committed value 4, visible at 5", got)
	}
	e.Run(3)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Valid() || r.Read() != nil {
		t.Error("restored expired register shows a value")
	}
	again, _ := e.Snapshot()
	if !again.SameState(snap) {
		t.Error("snapshot, restore, snapshot changed the state")
	}
}
