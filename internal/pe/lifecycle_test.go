package pe_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/tie"
)

func build(t *testing.T, cores int) *core.System {
	t.Helper()
	sys, err := core.Build(core.DefaultConfig(cores, 8, cache.WriteBack))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// programs counts the program coroutines alive in the process: the
// goroutines a full dump shows in state "coroutine". Nothing else in these
// tests uses iter.Pull, so it is 0 between runs — an exact form of "the
// goroutine count returns to its baseline", which runtime.NumGoroutine
// itself cannot give while the testing package's own goroutines come and
// go.
func programs() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), " [coroutine]:")
}

// leakFree fails the test if a program coroutine is left.
func leakFree(t *testing.T) {
	t.Helper()
	if n := programs(); n != 0 {
		t.Errorf("%d program coroutines left behind", n)
	}
}

// spin retires local work forever: it never issues anything of its own
// accord, so only the run-ahead bound hands it back to the core.
func spin(sys *core.System) pe.Program {
	return func(env *pe.Env) {
		addr := sys.Map.PrivateAddr(env.Rank(), 0)
		for {
			env.LoadWord(addr)
		}
	}
}

// TestAbort stops a program at every point of its life and checks that it
// unwound (its deferred calls ran), reported no error and left nothing
// behind.
func TestAbort(t *testing.T) {
	cases := []struct {
		name   string
		cycles int64 // to run before the abort
		body   func(sys *core.System, env *pe.Env)
		halted bool // the program has returned by then
	}{
		{"before the first fetch", 0, func(_ *core.System, env *pe.Env) { env.Compute(1) }, false},
		{"in a bridge transaction", 5, func(sys *core.System, env *pe.Env) {
			env.LoadWordUncached(sys.Map.SharedAddr(0))
		}, false},
		{"blocked in Recv", 50, func(sys *core.System, env *pe.Env) {
			env.Recv(sys.NodeOf(0), tie.Data) // nobody sends
		}, false},
		{"in a run-ahead stretch", 5, func(sys *core.System, env *pe.Env) {
			env.Compute(1000)
			env.LoadWordUncached(sys.Map.SharedAddr(0))
		}, false},
		{"spinning on local work", 5, func(sys *core.System, env *pe.Env) { spin(sys)(env) }, false},
		{"after a clean halt", 50, func(_ *core.System, env *pe.Env) { env.Compute(3) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := build(t, 1)
			p := sys.Procs[0]
			started, unwound, completed := false, false, false
			p.Launch(func(env *pe.Env) {
				started = true
				defer func() { unwound = true }()
				c.body(sys, env)
				completed = true
			})
			if n := programs(); n != 1 {
				t.Fatalf("a launched program should be one coroutine, found %d", n)
			}
			sys.Engine.Run(c.cycles)
			if p.Halted() != c.halted {
				t.Fatalf("Halted() = %v after %d cycles", p.Halted(), c.cycles)
			}
			p.Abort()
			p.Abort() // a second one is a no-op
			if !p.Halted() {
				t.Error("core not halted after Abort")
			}
			if err := p.ProgramErr(); err != nil {
				t.Errorf("an abort is not a program failure: %v", err)
			}
			if unwound != started || completed != c.halted {
				t.Errorf("started %v, unwound %v, completed %v", started, unwound, completed)
			}
			leakFree(t)
		})
	}
}

// TestAbortRecovered: application code that swallows the abort sentinel
// and carries on is stopped by its next operation, issued or local.
func TestAbortRecovered(t *testing.T) {
	for _, next := range []string{"issues", "spins"} {
		t.Run(next, func(t *testing.T) {
			sys := build(t, 1)
			swallowed, reached := false, false
			sys.Procs[0].Launch(func(env *pe.Env) {
				func() {
					defer func() { swallowed = recover() != nil }()
					env.Recv(sys.NodeOf(0), tie.Data)
				}()
				if next == "spins" {
					spin(sys)(env)
				}
				env.Compute(5)
				env.LoadWordUncached(sys.Map.SharedAddr(0))
				reached = true
			})
			sys.Engine.Run(20)
			sys.Procs[0].Abort()
			if !swallowed || reached {
				t.Errorf("swallowed %v, ran to its end %v", swallowed, reached)
			}
			if err := sys.Procs[0].ProgramErr(); err != nil {
				t.Errorf("ProgramErr = %v", err)
			}
			leakFree(t)
		})
	}
}

// TestPanicIsolation: a panicking program halts its own core with a
// ProgramErr that carries the panic and its stack; its sibling keeps
// running until the driver fails the run, with the rank in the error.
func TestPanicIsolation(t *testing.T) {
	sys := build(t, 2)
	sys.Launch([]pe.Program{
		func(env *pe.Env) {
			env.Compute(10)
			panic("boom")
		},
		spin(sys),
	})
	sys.Engine.Run(100)
	bad, sibling := sys.Procs[0], sys.Procs[1]
	if !bad.Halted() || sibling.Halted() {
		t.Fatalf("halted: faulty %v, sibling %v", bad.Halted(), sibling.Halted())
	}
	err := bad.ProgramErr()
	if err == nil {
		t.Fatal("no ProgramErr after a panic")
	}
	for _, want := range []string{"boom", "rank 0", "TestPanicIsolation", "lifecycle_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ProgramErr lacks %q:\n%v", want, err)
		}
	}
	if bad.FinishCycle() != 10 {
		t.Errorf("halted at cycle %d, want 10: the panic follows ten cycles of compute", bad.FinishCycle())
	}
	err = sys.RunCtx(context.Background(), 1_000_000)
	if err == nil || !strings.Contains(err.Error(), "core: rank 0:") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("RunCtx = %v", err)
	}
	if !sibling.Halted() {
		t.Error("sibling still running after a failed run")
	}
	leakFree(t)
}

// TestFailReturnedByRun: Env.Fail's error comes back from RunCtx wrapped
// with the rank, at the cycle the program reached.
func TestFailReturnedByRun(t *testing.T) {
	sys := build(t, 3)
	errKernel := errors.New("kernel gave up")
	progs := []pe.Program{spin(sys), spin(sys), spin(sys)}
	progs[1] = func(env *pe.Env) {
		env.Compute(7)
		env.Fail(errKernel)
	}
	sys.Launch(progs)
	err := sys.RunCtx(context.Background(), 1_000_000)
	if !errors.Is(err, errKernel) || !strings.Contains(err.Error(), "core: rank 1:") {
		t.Fatalf("RunCtx = %v", err)
	}
	if got := sys.Procs[1].FinishCycle(); got != 7 {
		t.Errorf("failed at cycle %d, want 7", got)
	}
	leakFree(t)
}

// TestBadAccessFailsTheProgram: a misaligned or odd-sized access is the
// program's error, reported per rank like any other, not a panic on the
// goroutine that runs the engine.
func TestBadAccessFailsTheProgram(t *testing.T) {
	cases := []struct {
		name string
		op   func(env *pe.Env, base uint32)
		want string
	}{
		{"LoadWord", func(env *pe.Env, a uint32) { env.LoadWord(a + 2) }, "4 bytes at %#x"},
		{"StoreWord", func(env *pe.Env, a uint32) { env.StoreWord(a+2, 1) }, "4 bytes at %#x"},
		{"LoadDouble", func(env *pe.Env, a uint32) { env.LoadDouble(a + 2) }, "8 bytes at %#x"},
		{"StoreDouble", func(env *pe.Env, a uint32) { env.StoreDouble(a+2, 1) }, "8 bytes at %#x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := build(t, 2)
			addr := sys.Map.PrivateAddr(1, 0x40)
			sys.Launch([]pe.Program{
				spin(sys),
				func(env *pe.Env) { c.op(env, addr) },
			})
			err := sys.RunCtx(context.Background(), 1_000_000)
			if err == nil {
				t.Fatal("run succeeded")
			}
			for _, want := range []string{"core: rank 1:", "pe: bad access: " + fmt.Sprintf(c.want, addr+2)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error lacks %q:\n%v", want, err)
				}
			}
		})
	}
}

// TestAbandonedRunsLeakNothing: however a run ends early, RunCtx leaves
// no program behind. The spinning programs also make run-ahead's bound a
// checked property: they never issue anything, and the run must still
// reach its cycle budget, and notice its context, in bounded wall time.
func TestAbandonedRunsLeakNothing(t *testing.T) {
	cases := []struct {
		name  string
		progs func(sys *core.System) []pe.Program
		run   func(sys *core.System) error
		want  error
	}{
		{"cycle budget, spinning", func(sys *core.System) []pe.Program {
			return []pe.Program{spin(sys), spin(sys)}
		}, func(sys *core.System) error {
			return sys.RunCtx(context.Background(), 200_000)
		}, sim.ErrTimeout},
		{"cycle budget, deadlocked", func(sys *core.System) []pe.Program {
			wait := func(env *pe.Env) { env.Recv(sys.NodeOf(0), tie.Data) }
			return []pe.Program{wait, wait}
		}, func(sys *core.System) error {
			return sys.RunCtx(context.Background(), 20_000)
		}, sim.ErrTimeout},
		{"canceled, spinning", func(sys *core.System) []pe.Program {
			return []pe.Program{spin(sys), spin(sys)}
		}, func(sys *core.System) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer time.AfterFunc(50*time.Millisecond, cancel).Stop()
			return sys.RunCtx(ctx, 1<<62)
		}, context.Canceled},
		{"failed sibling", func(sys *core.System) []pe.Program {
			return []pe.Program{spin(sys), func(env *pe.Env) { panic("boom") }}
		}, func(sys *core.System) error {
			return sys.RunCtx(context.Background(), 1_000_000)
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := build(t, 2)
			sys.Launch(c.progs(sys))
			start := time.Now()
			err := c.run(sys)
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("RunCtx = %v, want %v", err, c.want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("run took %v to end", d)
			}
			for r, p := range sys.Procs {
				if !p.Halted() {
					t.Errorf("rank %d still running", r)
				}
			}
			leakFree(t)
		})
	}
}

// TestNowTracksRunAhead: the program's clock counts what it has retired
// locally, from the cycle the core first fetched from it.
func TestNowTracksRunAhead(t *testing.T) {
	sys := build(t, 1)
	sys.Engine.Run(100) // launch late
	var t0, t1, t2 int64
	sys.Launch([]pe.Program{func(env *pe.Env) {
		t0 = env.Now()
		env.Compute(30)
		t1 = env.Now()
		env.LoadWordUncached(sys.Map.SharedAddr(0))
		t2 = env.Now()
	}})
	if err := sys.RunCtx(context.Background(), 100_000); err != nil {
		t.Fatal(err)
	}
	if t0 != 100 || t1 != 130 || t2 <= t1 || t2 != sys.Cycles() {
		t.Errorf("Now() = %d, %d, %d; the run ended at cycle %d", t0, t1, t2, sys.Cycles())
	}
}
