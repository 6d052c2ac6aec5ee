package sim

import (
	"context"
	"errors"
	"testing"
)

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string, phase int) {
		e.Register(phase, &FuncComponent{ComponentName: name, Fn: func(int64) {
			order = append(order, name)
		}})
	}
	mk("node-a", PhaseNode)
	mk("sw-a", PhaseSwitch)
	mk("node-b", PhaseNode)
	e.Tick()
	want := []string{"node-a", "node-b", "sw-a"}
	for i, n := range want {
		if order[i] != n {
			t.Fatalf("step order %v, want %v", order, want)
		}
	}
	if e.Now() != 1 {
		t.Errorf("Now() = %d after one tick", e.Now())
	}
}

func TestRegSemantics(t *testing.T) {
	e := NewEngine()
	r := NewReg[int](e, "r")
	if r.Valid() {
		t.Fatal("fresh register should be empty")
	}
	r.Set(42)
	if r.Valid() {
		t.Fatal("write must not be visible before commit")
	}
	e.Tick()
	v, ok := r.Get()
	if !ok || v != 42 {
		t.Fatalf("after commit Get() = %v, %v", v, ok)
	}
	// No write this cycle: the register drains.
	e.Tick()
	if r.Valid() {
		t.Error("register must clear when not rewritten")
	}
}

func TestRegDoubleWritePanics(t *testing.T) {
	e := NewEngine()
	r := NewReg[int](e, "r")
	r.Set(1)
	defer func() {
		if recover() == nil {
			t.Error("double Set in one cycle should panic")
		}
	}()
	r.Set(2)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(PhaseNode, &FuncComponent{ComponentName: "c", Fn: func(int64) { count++ }})
	err := e.RunUntilCtx(context.Background(), func() bool { return count >= 10 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	e := NewEngine()
	err := e.RunUntilCtx(context.Background(), func() bool { return false }, 5)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %d, want 5", e.Now())
	}
}

func TestRun(t *testing.T) {
	e := NewEngine()
	e.Run(7)
	if e.Now() != 7 {
		t.Errorf("Now() = %d, want 7", e.Now())
	}
}

func TestInvalidPhasePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("invalid phase should panic")
		}
	}()
	e.Register(99, &FuncComponent{ComponentName: "x", Fn: func(int64) {}})
}

func TestPipelineThroughRegisters(t *testing.T) {
	// A two-stage pipeline: producer -> reg -> consumer. The consumer must
	// see each value exactly one cycle after it was produced.
	e := NewEngine()
	r := NewReg[int](e, "pipe")
	produced := 0
	var seen []int
	e.Register(PhaseNode, &FuncComponent{ComponentName: "prod", Fn: func(now int64) {
		produced++
		r.Set(produced)
	}})
	e.Register(PhaseSwitch, &FuncComponent{ComponentName: "cons", Fn: func(now int64) {
		if v, ok := r.Get(); ok {
			seen = append(seen, v)
		}
	}})
	e.Run(4)
	want := []int{1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("seen %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v, want %v", seen, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(124)
	same := true
	a2 := NewRNG(123)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must not stick at zero")
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(11)
	never, always := NewCoin(0), NewCoin(1)
	for i := 0; i < 100; i++ {
		if r.Flip(never) {
			t.Fatal("NewCoin(0) came up heads")
		}
		if !r.Flip(always) {
			t.Fatal("NewCoin(1) came up tails")
		}
	}
}
