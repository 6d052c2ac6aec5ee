package core

import (
	"context"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/pe"
)

func build(t *testing.T, numCompute, cacheKB int, policy cache.Policy) *System {
	t.Helper()
	sys, err := Build(DefaultConfig(numCompute, cacheKB, policy))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// run launches one program per core and runs to completion.
func run(t *testing.T, sys *System, progs ...pe.Program) {
	t.Helper()
	sys.Launch(progs)
	if err := sys.RunCtx(context.Background(), 20_000_000); err != nil {
		t.Fatal(err)
	}
	if n := sys.IntegrityErrors(); n != 0 {
		t.Fatalf("%d message integrity errors", n)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TorusW: 4, TorusH: 4, NumCompute: 0, CacheKB: 8},
		{TorusW: 4, TorusH: 4, NumCompute: 16, CacheKB: 8}, // 16+MPMMU > 16 nodes
		{TorusW: 8, TorusH: 8, NumCompute: 2, CacheKB: 8},  // 64 nodes > src field
		{TorusW: 4, TorusH: 4, NumCompute: 2, CacheKB: 3},  // bad cache size
		{TorusW: 4, TorusH: 4, NumCompute: 2, CacheKB: 8, MPMMUNode: 99},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
	if err := DefaultConfig(15, 64, cache.WriteBack).Validate(); err != nil {
		t.Errorf("paper max config rejected: %v", err)
	}
}

func TestNodeAssignment(t *testing.T) {
	sys := build(t, 3, 8, cache.WriteBack)
	if sys.NodeOf(0) == sys.Cfg.MPMMUNode {
		t.Error("rank 0 collides with MPMMU")
	}
	seen := map[int]bool{sys.Cfg.MPMMUNode: true}
	for r := 0; r < 3; r++ {
		n := sys.NodeOf(r)
		if seen[n] {
			t.Errorf("node %d assigned twice", n)
		}
		seen[n] = true
	}
}

func TestComputeOpTiming(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteBack)
	var finish int64
	run(t, sys, func(env *pe.Env) {
		env.Compute(100)
		env.Compute(50)
		finish = env.Now()
	})
	// Two back-to-back compute bursts: 150 cycles plus constant overhead.
	if finish < 150 || finish > 160 {
		t.Errorf("finish = %d, want ~150", finish)
	}
}

func TestPrivateMemoryRoundTrip(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	addr := sys.Map.PrivateAddr(0, 0x100)
	var got uint32
	var gotD float64
	run(t, sys,
		func(env *pe.Env) {
			env.StoreWord(addr, 0xC0FFEE)
			got = env.LoadWord(addr)
			env.StoreDouble(addr+8, 2.5)
			gotD = env.LoadDouble(addr + 8)
		},
		func(env *pe.Env) {},
	)
	if got != 0xC0FFEE || gotD != 2.5 {
		t.Errorf("round trip: %#x, %v", got, gotD)
	}
	// Dirty data drains to the memory image.
	sys.DrainCaches()
	if sys.DDR.ReadWord(addr) != 0xC0FFEE {
		t.Error("dirty line not drained to DDR")
	}
}

func TestUncachedOps(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteBack)
	addr := sys.Map.SharedAddr(0x40)
	var got uint32
	run(t, sys, func(env *pe.Env) {
		env.StoreWordUncached(addr, 77)
		got = env.LoadWordUncached(addr)
	})
	if got != 77 {
		t.Errorf("uncached round trip: %d", got)
	}
	if sys.Procs[0].Cache.Stats.Hits.Value()+sys.Procs[0].Cache.Stats.Misses.Value() != 0 {
		t.Error("uncached ops must not touch the L1")
	}
}

// TestFlushInvalidateCoherency reproduces the paper's software-coherency
// recipe: producer writes and flushes; consumer invalidates and reads.
func TestFlushInvalidateCoherency(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	addr := sys.Map.SharedAddr(0x80)
	flag := sys.Map.SharedAddr(0x200)
	var consumerSaw uint32
	run(t, sys,
		func(env *pe.Env) { // producer
			env.StoreWord(addr, 11)        // cached write (dirty in L1)
			env.FlushLine(addr)            // write back to system memory
			env.StoreWordUncached(flag, 1) // signal
		},
		func(env *pe.Env) { // consumer
			for env.LoadWordUncached(flag) != 1 {
			}
			env.InvalidateLine(addr) // DII
			consumerSaw = env.LoadWord(addr)
		},
	)
	if consumerSaw != 11 {
		t.Errorf("consumer read %d, want 11 (software coherency broken)", consumerSaw)
	}
}

// TestStaleCacheWithoutInvalidate shows the hazard the paper's programming
// model warns about: without DII the consumer reads its stale cached copy.
func TestStaleCacheWithoutInvalidate(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	addr := sys.Map.SharedAddr(0x80)
	flag := sys.Map.SharedAddr(0x200)
	var consumerSaw uint32
	run(t, sys,
		func(env *pe.Env) { // producer
			for env.LoadWordUncached(flag) != 1 { // wait for consumer's first read
			}
			env.StoreWord(addr, 22)
			env.FlushLine(addr)
			env.StoreWordUncached(flag, 2)
		},
		func(env *pe.Env) { // consumer caches the line first
			_ = env.LoadWord(addr) // brings 0 into L1
			env.StoreWordUncached(flag, 1)
			for env.LoadWordUncached(flag) != 2 {
			}
			consumerSaw = env.LoadWord(addr) // no DII: stale hit
		},
	)
	if consumerSaw != 0 {
		t.Errorf("consumer saw %d; expected stale 0 without invalidate", consumerSaw)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	sys := build(t, 4, 8, cache.WriteBack)
	lockAddr := sys.Map.SharedAddr(0x400)
	cntAddr := sys.Map.SharedAddr(0x440)
	const perCore = 20
	progs := make([]pe.Program, 4)
	for i := range progs {
		progs[i] = func(env *pe.Env) {
			for k := 0; k < perCore; k++ {
				env.Lock(lockAddr)
				v := env.LoadWordUncached(cntAddr)
				env.Compute(3) // widen the race window
				env.StoreWordUncached(cntAddr, v+1)
				env.Unlock(lockAddr)
			}
		}
	}
	run(t, sys, progs...)
	if got := sys.DDR.ReadWord(cntAddr); got != 4*perCore {
		sys.DrainCaches()
		got = sys.DDR.ReadWord(cntAddr)
		if got != 4*perCore {
			t.Errorf("counter = %d, want %d (lock not exclusive)", got, 4*perCore)
		}
	}
}

func TestMessagePingPong(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	n0, n1 := sys.NodeOf(0), sys.NodeOf(1)
	var rtt int64
	var echoed uint32
	run(t, sys,
		func(env *pe.Env) {
			t0 := env.Now()
			env.Send(n1, 1 /* tie.Data */, []uint32{42})
			pkt := env.Recv(n1, 1)
			rtt = env.Now() - t0
			echoed = pkt.Words[0]
		},
		func(env *pe.Env) {
			pkt := env.Recv(n0, 1)
			env.Send(n0, 1, []uint32{pkt.Words[0]})
		},
	)
	if echoed != 42 {
		t.Fatalf("echo = %d", echoed)
	}
	if rtt <= 0 || rtt > 200 {
		t.Errorf("round trip = %d cycles, implausible", rtt)
	}
	t.Logf("1-word message round trip: %d cycles", rtt)
}

func TestDeterministicRuns(t *testing.T) {
	measure := func() (int64, int64) {
		sys := build(t, 4, 4, cache.WriteBack)
		progs := make([]pe.Program, 4)
		for i := range progs {
			rank := i
			progs[i] = func(env *pe.Env) {
				base := sys.Map.PrivateAddr(rank, 0)
				for k := uint32(0); k < 200; k++ {
					env.StoreWord(base+4*(k%64), k)
					_ = env.LoadWord(base + 4*((k*7)%64))
				}
				env.Send(sys.NodeOf((rank+1)%4), 1, []uint32{uint32(rank)})
				env.Recv(sys.NodeOf((rank+3)%4), 1)
			}
		}
		sys.Launch(progs)
		if err := sys.RunCtx(context.Background(), 20_000_000); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles(), sys.Net.Stats.Delivered.Value()
	}
	c1, d1 := measure()
	c2, d2 := measure()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
}

func TestWriteThroughSlowerThanWriteBack(t *testing.T) {
	time := func(pol cache.Policy) int64 {
		sys := build(t, 1, 8, pol)
		run(t, sys, func(env *pe.Env) {
			base := sys.Map.PrivateAddr(0, 0)
			for k := uint32(0); k < 100; k++ {
				env.StoreWord(base+4*(k%32), k)
			}
		})
		return sys.Cycles()
	}
	wb := time(cache.WriteBack)
	wt := time(cache.WriteThrough)
	if wt <= 2*wb {
		t.Errorf("WT (%d) should be much slower than WB (%d) on a store loop", wt, wb)
	}
}

func TestArbiterModesAllWork(t *testing.T) {
	for _, mode := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
		cfg := DefaultConfig(2, 8, cache.WriteBack)
		cfg.Arbiter = mode
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n1 := sys.NodeOf(1)
		var ok uint32
		run(t, sys,
			func(env *pe.Env) {
				// Interleave memory traffic and messages to exercise the
				// arbiter.
				base := sys.Map.PrivateAddr(0, 0)
				for k := uint32(0); k < 32; k++ {
					env.StoreWord(base+4*k, k)
				}
				env.Send(n1, 1, []uint32{7})
			},
			func(env *pe.Env) {
				pkt := env.Recv(sys.NodeOf(0), 1)
				ok = pkt.Words[0]
			},
		)
		if ok != 7 {
			t.Errorf("arbiter mode %v lost the message", mode)
		}
	}
}
