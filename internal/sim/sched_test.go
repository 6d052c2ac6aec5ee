package sim

import (
	"reflect"
	"testing"
)

// napper is a Sleeper that has work on every multiple of period (never,
// when period is 0) and says it is idle from every Step. It records the
// cycles it stepped on and every Skipped notification it received.
type napper struct {
	name    string
	period  int64
	h       *Handle
	stepped []int64
	skipped [][2]int64
	asked   int // NextEvent calls: Idle calls the engine acted on
	onStep  func(now int64)
}

func (n *napper) Name() string   { return n.name }
func (n *napper) Bind(h *Handle) { n.h = h }
func (n *napper) Step(now int64) {
	n.stepped = append(n.stepped, now)
	if n.onStep != nil {
		n.onStep(now)
	}
	n.h.Idle()
}
func (n *napper) NextEvent(now int64) int64 {
	n.asked++
	if n.period == 0 {
		return NoEvent
	}
	return (now + n.period - 1) / n.period * n.period
}
func (n *napper) Skipped(from, to int64) { n.skipped = append(n.skipped, [2]int64{from, to}) }
func (n *napper) Snapshot() any          { return len(n.stepped) }
func (n *napper) Restore(any)            {}

// at returns a component that calls fn on the given cycle only; having
// neither capability it steps every cycle and keeps the engine from
// jumping, so the tests below see every cycle ticked.
func at(name string, cycle int64, fn func()) *FuncComponent {
	return &FuncComponent{ComponentName: name, Fn: func(now int64) {
		if now == cycle {
			fn()
		}
	}}
}

func wantCycles(t *testing.T, what string, got []int64, want ...int64) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s on cycles %v, want %v", what, got, want)
	}
}

// A wake from a component earlier in the cycle's order steps the target
// that cycle; a wake from a later one steps it the next cycle. Either way
// the sleeper first learns exactly which cycles it missed.
func TestWakeOrderWithinCycle(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "target"}
	e.Register(PhaseNode, at("before", 5, func() { n.h.Wake() }))
	e.Register(PhaseNode, n)
	e.Register(PhaseNode, at("after", 9, func() { n.h.Wake() }))
	e.Run(20)
	wantCycles(t, "target stepped", n.stepped, 0, 5, 10)
	want := [][2]int64{{1, 5}, {6, 10}, {11, 20}}
	if !reflect.DeepEqual(n.skipped, want) {
		t.Errorf("Skipped calls %v, want %v", n.skipped, want)
	}
	if e.CyclesSkipped() != 0 {
		t.Errorf("CyclesSkipped() = %d beside a component that steps every cycle", e.CyclesSkipped())
	}
}

// A switch-phase sleeper woken from the node phase steps the same cycle:
// phases are part of the order.
func TestWakeAcrossPhases(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "switch"}
	e.Register(PhaseSwitch, n)
	e.Register(PhaseNode, at("node", 7, func() { n.h.Wake() }))
	e.Run(10)
	wantCycles(t, "switch stepped", n.stepped, 0, 7)
}

// A register commit wakes its declared consumer on exactly the cycle the
// value is visible, and not the cycle it was written.
func TestRegCommitWakesConsumer(t *testing.T) {
	e := NewEngine()
	r := NewReg[int](e, "r")
	var seen []int
	n := &napper{name: "consumer"}
	n.onStep = func(int64) {
		if v, ok := r.Get(); ok {
			seen = append(seen, v)
		}
	}
	e.Register(PhaseSwitch, n)
	r.Wakes(n.h)
	e.Register(PhaseNode, at("producer", 6, func() { r.Set(42) }))
	e.Run(10)
	wantCycles(t, "consumer stepped", n.stepped, 0, 7)
	if !reflect.DeepEqual(seen, []int{42}) {
		t.Errorf("consumer saw %v, want [42]", seen)
	}
}

// Absent a wake, a sleeper is never stepped before its stamp, and is
// stepped on it.
func TestSleeperWaitsForStamp(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "timer", period: 40}
	e.Register(PhaseNode, n)
	e.Register(PhaseNode, &FuncComponent{ComponentName: "busy", Fn: func(int64) {}})
	e.Run(100)
	wantCycles(t, "timer stepped", n.stepped, 0, 40, 80)
}

// A sleep shorter than minNap is not taken, and where wakes keep cutting
// sleeps short the component all but stops asking: a switch in a loaded
// network must not pay for the scheduler.
func TestShortSleepsBackOff(t *testing.T) {
	e := NewEngine()
	soon := &napper{name: "soon", period: minNap - 1}
	e.Register(PhaseNode, soon)
	e.Register(PhaseNode, &FuncComponent{ComponentName: "busy", Fn: func(int64) {}})
	e.Run(60)
	if len(soon.stepped) != 60 {
		t.Errorf("a component with work every %d cycles stepped %d of 60 cycles", minNap-1, len(soon.stepped))
	}
	if want := 60/(minNap-1) + 1; soon.asked > want {
		t.Errorf("asked %d times in 60 cycles, want at most %d: an answer of \"not before t\" holds until t", soon.asked, want)
	}

	e = NewEngine()
	n := &napper{name: "pestered"}
	pester := true
	e.Register(PhaseNode, &FuncComponent{ComponentName: "waker", Fn: func(int64) {
		if pester {
			n.h.Wake()
		}
	}})
	e.Register(PhaseNode, n)
	e.Run(1000)
	if len(n.stepped) != 1000 {
		t.Fatalf("woken every cycle, stepped %d of 1000 cycles", len(n.stepped))
	}
	if want := 1000/maxBackoff + 8; n.asked > want {
		t.Errorf("asked to sleep %d times in 1000 cycles of being woken at once, want at most %d", n.asked, want)
	}
	// Left alone it sleeps within maxBackoff cycles, and one sleep that
	// lasts resets the backoff: woken for nothing, it goes straight back.
	pester = false
	n.stepped = nil
	e.Run(200)
	if len(n.stepped) > maxBackoff {
		t.Errorf("left alone, stepped %d more cycles before sleeping, want at most %d", len(n.stepped), maxBackoff)
	}
	n.stepped, n.asked = nil, 0
	n.h.Wake()
	e.Run(10)
	if len(n.stepped) != 1 || n.asked != 1 {
		t.Errorf("woken for nothing after a long sleep: stepped %d cycles, asked %d times, want 1 and 1", len(n.stepped), n.asked)
	}
}

// Tick alone owes the sleeper its notification; Snapshot delivers it
// before capturing, once, and a second Snapshot has nothing left to say.
func TestSnapshotFlushesSkipped(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "n"}
	e.Register(PhaseNode, n)
	for i := 0; i < 6; i++ {
		e.Tick()
	}
	if len(n.skipped) != 0 {
		t.Fatalf("Skipped delivered %v before anyone asked", n.skipped)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if want := [][2]int64{{1, 6}}; !reflect.DeepEqual(n.skipped, want) {
		t.Errorf("Skipped calls %v, want %v", n.skipped, want)
	}
}

// Restore reinstates the stamps: a sleeper restored asleep stays asleep
// until its stamp, one restored awake steps at once.
func TestRestoreCarriesStamps(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "n", period: 10}
	e.Register(PhaseNode, n)
	e.Run(5) // asleep until 10
	asleep, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	wantCycles(t, "stepped", n.stepped, 0, 10)
	if err := e.Restore(asleep); err != nil {
		t.Fatal(err)
	}
	n.stepped, n.skipped = nil, nil
	e.Run(10)
	wantCycles(t, "stepped after restore", n.stepped, 10)
	if want := [][2]int64{{5, 10}, {11, 15}}; !reflect.DeepEqual(n.skipped, want) {
		t.Errorf("Skipped calls after restore %v, want %v", n.skipped, want)
	}
}

// With fast-forward off nothing sleeps: every component steps every
// cycle, and switching it off mid-run wakes whoever was asleep.
func TestFastForwardOffStepsEverything(t *testing.T) {
	e := NewEngine()
	e.SetFastForward(false)
	n := &napper{name: "n", period: 50}
	e.Register(PhaseNode, n)
	e.Run(10)
	if len(n.stepped) != 10 || len(n.skipped) != 0 || e.CyclesSkipped() != 0 {
		t.Errorf("stepped %d of 10 cycles, Skipped %v, CyclesSkipped %d", len(n.stepped), n.skipped, e.CyclesSkipped())
	}

	e = NewEngine()
	n = &napper{name: "n", period: 50}
	e.Register(PhaseNode, n)
	e.Run(10)
	e.SetFastForward(false)
	e.Run(5)
	wantCycles(t, "stepped", n.stepped, 0, 10, 11, 12, 13, 14)
}

// CyclesSkipped counts only the cycles on which no component stepped.
func TestCyclesSkippedCountsAllAsleepCycles(t *testing.T) {
	e := NewEngine()
	a := &napper{name: "a", period: 10}
	b := &napper{name: "b", period: 15}
	e.Register(PhaseNode, a)
	e.Register(PhaseSwitch, b)
	e.Run(30)
	wantCycles(t, "a stepped", a.stepped, 0, 10, 20)
	wantCycles(t, "b stepped", b.stepped, 0, 15)
	if got, want := e.CyclesSkipped(), int64(30-4); got != want { // ticked: 0, 10, 15, 20
		t.Errorf("CyclesSkipped() = %d, want %d", got, want)
	}
	// Every cycle is accounted for, by a Step or by a Skipped range.
	for _, n := range []*napper{a, b} {
		covered := int64(len(n.stepped))
		for _, s := range n.skipped {
			covered += s[1] - s[0]
		}
		if covered != 30 {
			t.Errorf("%s: steps and Skipped ranges cover %d of 30 cycles (%v, %v)", n.name, covered, n.stepped, n.skipped)
		}
	}
}

// A plain NextEventer beside sleepers is stepped on every ticked cycle
// and still jumped over when everything else is asleep.
func TestPolledEventerBesideSleepers(t *testing.T) {
	e := NewEngine()
	n := &napper{name: "n", period: 100}
	p := newEventComp("polled", 30)
	e.Register(PhaseNode, n)
	e.Register(PhaseNode, p)
	e.Run(100)
	wantCycles(t, "sleeper stepped", n.stepped, 0)
	if p.steps != 4 { // 0, 30, 60, 90
		t.Errorf("polled component stepped %d times, want 4", p.steps)
	}
	if e.CyclesSkipped() != 96 || p.skipped != 96 {
		t.Errorf("CyclesSkipped() = %d, polled Skipped covers %d, want 96 and 96", e.CyclesSkipped(), p.skipped)
	}
}

// The process default is read by NewEngine on worker goroutines while a
// CLI may still be writing it: it must be race-free (run with -race).
func TestDefaultFastForwardConcurrent(t *testing.T) {
	defer SetDefaultFastForward(DefaultFastForward())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			SetDefaultFastForward(i%2 == 0)
		}
	}()
	for i := 0; i < 1000; i++ {
		NewEngine()
	}
	<-done
}
