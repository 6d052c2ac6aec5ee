package empi

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
)

func buildSys(t *testing.T, n int) *core.System {
	t.Helper()
	sys, err := core.Build(core.DefaultConfig(n, 8, cache.WriteBack))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func runAll(t *testing.T, sys *core.System, progs []pe.Program) {
	t.Helper()
	sys.Launch(progs)
	if err := sys.RunCtx(context.Background(), 50_000_000); err != nil {
		t.Fatal(err)
	}
	if n := sys.IntegrityErrors(); n != 0 {
		t.Fatalf("%d integrity errors", n)
	}
}

func TestSendRecvSmall(t *testing.T) {
	sys := buildSys(t, 2)
	nodes := sys.RankNodes()
	var got []uint32
	runAll(t, sys, []pe.Program{
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			c.Send(1, []uint32{1, 2, 3})
		},
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			got = c.Recv(0, 3)
		},
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSendRecvLargeFragmented(t *testing.T) {
	sys := buildSys(t, 2)
	nodes := sys.RankNodes()
	const n = 100 // 100 words: 6 full fragments + 1 partial
	msg := make([]uint32, n)
	for i := range msg {
		msg[i] = uint32(i * 3)
	}
	var got []uint32
	runAll(t, sys, []pe.Program{
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			c.Send(1, msg)
		},
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			got = c.Recv(0, n)
		},
	})
	if len(got) != n {
		t.Fatalf("got %d words", len(got))
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], msg[i])
		}
	}
}

func TestDoublesRoundTrip(t *testing.T) {
	sys := buildSys(t, 2)
	nodes := sys.RankNodes()
	vals := []float64{3.14, -2.5, 1e-300, 0, 6.02e23}
	var got []float64
	runAll(t, sys, []pe.Program{
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			c.SendDoubles(1, vals)
		},
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			got = c.RecvDoubles(0, len(vals))
		},
	})
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("double %d = %v, want %v", i, got[i], v)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const P = 5
	sys := buildSys(t, P)
	nodes := sys.RankNodes()
	before := make([]int64, P)
	after := make([]int64, P)
	progs := make([]pe.Program, P)
	for i := range progs {
		rank := i
		progs[i] = func(env *pe.Env) {
			c, _ := New(env, nodes)
			// Stagger arrivals: rank r computes r*500 cycles first.
			env.Compute(int64(rank)*500 + 1)
			before[rank] = env.Now()
			c.Barrier()
			after[rank] = env.Now()
		}
	}
	runAll(t, sys, progs)
	// Every rank must leave the barrier after every rank entered it.
	var maxBefore int64
	for _, b := range before {
		if b > maxBefore {
			maxBefore = b
		}
	}
	for r, a := range after {
		if a < maxBefore {
			t.Errorf("rank %d left the barrier at %d before the last arrival at %d", r, a, maxBefore)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const P, iters = 4, 20
	sys := buildSys(t, P)
	nodes := sys.RankNodes()
	counts := make([][]int64, P)
	progs := make([]pe.Program, P)
	for i := range progs {
		rank := i
		counts[rank] = make([]int64, 0, iters)
		progs[i] = func(env *pe.Env) {
			c, _ := New(env, nodes)
			for k := 0; k < iters; k++ {
				env.Compute(int64((rank*7+k*13)%97) + 1) // deterministic skew
				c.Barrier()
				counts[rank] = append(counts[rank], env.Now())
			}
		}
	}
	runAll(t, sys, progs)
	// Barrier episodes must not interleave: everyone's k-th exit precedes
	// everyone's (k+1)-th exit... which is implied by exit[k] ordering per
	// rank; the cross-rank check: max exit of episode k <= min exit of
	// episode k+1 + (release flight time). We check the strong invariant
	// that no rank's episode k+1 exit precedes another rank's episode k
	// exit by more than the release broadcast skew.
	for k := 0; k < iters-1; k++ {
		var maxK int64
		for r := 0; r < P; r++ {
			if counts[r][k] > maxK {
				maxK = counts[r][k]
			}
		}
		for r := 0; r < P; r++ {
			if counts[r][k+1] < maxK-int64(P*20) {
				t.Fatalf("episode %d of rank %d at %d overlaps episode %d ending %d",
					k+1, r, counts[r][k+1], k, maxK)
			}
		}
	}
}

func TestSendTokenRecvToken(t *testing.T) {
	sys := buildSys(t, 2)
	nodes := sys.RankNodes()
	var tok uint32
	runAll(t, sys, []pe.Program{
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			c.SendToken(1, 0x51C)
		},
		func(env *pe.Env) {
			c, _ := New(env, nodes)
			tok = c.RecvToken(0)
		},
	})
	if tok != 0x51C {
		t.Fatalf("token %#x", tok)
	}
}

func TestCommValidation(t *testing.T) {
	sys := buildSys(t, 2)
	nodes := sys.RankNodes()
	var err1, err2 error
	runAll(t, sys, []pe.Program{
		func(env *pe.Env) {
			_, err1 = New(env, nil) // rank outside empty communicator
			_, err2 = New(env, []int{99, 98})
		},
		func(env *pe.Env) {},
	})
	if err1 == nil {
		t.Error("empty communicator accepted")
	}
	if err2 == nil {
		t.Error("wrong node mapping accepted")
	}
	_ = nodes
}

func TestManyToOneTraffic(t *testing.T) {
	// All ranks send distinct payloads to rank 0, which receives from each
	// specific source. Exercises the any-order arrival matching.
	const P = 6
	sys := buildSys(t, P)
	nodes := sys.RankNodes()
	got := make([]uint32, P)
	progs := make([]pe.Program, P)
	progs[0] = func(env *pe.Env) {
		c, _ := New(env, nodes)
		for src := P - 1; src >= 1; src-- { // receive in reverse send order
			got[src] = c.Recv(src, 1)[0]
		}
	}
	for i := 1; i < P; i++ {
		rank := i
		progs[i] = func(env *pe.Env) {
			c, _ := New(env, nodes)
			c.Send(0, []uint32{uint32(rank * 11)})
		}
	}
	runAll(t, sys, progs)
	for r := 1; r < P; r++ {
		if got[r] != uint32(r*11) {
			t.Errorf("from rank %d got %d", r, got[r])
		}
	}
}
