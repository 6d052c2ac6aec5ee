package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/tie"
)

// These tests pin the micro-architectural behaviours of the memory path
// by asserting transaction counters, not just functional results.

func TestWriteBackAllocatesOnStoreMiss(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteBack)
	addr := sys.Map.PrivateAddr(0, 0x100)
	run(t, sys, func(env *pe.Env) {
		env.StoreWord(addr, 1) // miss -> write-allocate (block read)
		env.StoreWord(addr, 2) // hit
	})
	mmu := sys.MMU()
	if got := mmu.Stats.BlockReads.Value(); got != 1 {
		t.Errorf("block reads = %d, want 1 (write-allocate)", got)
	}
	if got := mmu.Stats.SingleWrites.Value(); got != 0 {
		t.Errorf("single writes = %d, want 0 for WB", got)
	}
}

func TestWriteThroughDoesNotAllocateOnStoreMiss(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteThrough)
	addr := sys.Map.PrivateAddr(0, 0x100)
	run(t, sys, func(env *pe.Env) {
		env.StoreWord(addr, 1) // miss -> straight to memory, no allocate
		env.StoreWord(addr, 2) // still a miss (no allocation happened)
	})
	mmu := sys.MMU()
	if got := mmu.Stats.BlockReads.Value(); got != 0 {
		t.Errorf("block reads = %d, want 0 (no write-allocate in WT)", got)
	}
	if got := mmu.Stats.SingleWrites.Value(); got != 2 {
		t.Errorf("single writes = %d, want 2", got)
	}
}

func TestWriteThroughStoresGoToMemoryOnHit(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteThrough)
	addr := sys.Map.PrivateAddr(0, 0x100)
	run(t, sys, func(env *pe.Env) {
		_ = env.LoadWord(addr) // allocate via load miss
		env.StoreWord(addr, 7) // hit, but WT -> memory write
		env.StoreWord(addr, 8) // hit again -> another memory write
		_ = env.LoadWord(addr) // hit, no extra traffic
	})
	mmu := sys.MMU()
	if got := mmu.Stats.SingleWrites.Value(); got != 2 {
		t.Errorf("single writes = %d, want 2", got)
	}
	if got := mmu.Stats.BlockReads.Value(); got != 1 {
		t.Errorf("block reads = %d, want 1 (the load fill)", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	sys := build(t, 1, 2, cache.WriteBack) // 2 kB: 128 lines
	base := sys.Map.PrivateAddr(0, 0)
	conflict := base + 2048 // same index, different tag
	run(t, sys, func(env *pe.Env) {
		env.StoreWord(base, 1)     // allocate + dirty
		_ = env.LoadWord(conflict) // evicts the dirty line
		_ = env.LoadWord(base)     // reload: must see 1
	})
	mmu := sys.MMU()
	if got := mmu.Stats.BlockWrites.Value(); got != 1 {
		t.Errorf("block writes = %d, want 1 (dirty victim)", got)
	}
	sys.DrainCaches()
	if v := sys.DDR.ReadWord(base); v != 1 {
		t.Errorf("memory lost the dirty data: %d", v)
	}
}

func TestCleanEvictionIsSilent(t *testing.T) {
	sys := build(t, 1, 2, cache.WriteBack)
	base := sys.Map.PrivateAddr(0, 0)
	conflict := base + 2048
	run(t, sys, func(env *pe.Env) {
		_ = env.LoadWord(base)     // clean line
		_ = env.LoadWord(conflict) // evicts silently
	})
	if got := sys.MMU().Stats.BlockWrites.Value(); got != 0 {
		t.Errorf("block writes = %d, want 0 (clean eviction)", got)
	}
}

func TestFlushOfCleanLineIsFree(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteBack)
	addr := sys.Map.PrivateAddr(0, 0)
	run(t, sys, func(env *pe.Env) {
		_ = env.LoadWord(addr)
		env.FlushLine(addr) // clean: no transaction
	})
	if got := sys.MMU().Stats.BlockWrites.Value(); got != 0 {
		t.Errorf("flush of clean line wrote back (%d block writes)", got)
	}
}

func TestDoubleAccessIsOneCacheAccess(t *testing.T) {
	sys := build(t, 1, 8, cache.WriteBack)
	addr := sys.Map.PrivateAddr(0, 0x200)
	run(t, sys, func(env *pe.Env) {
		env.StoreDouble(addr, 1.5)
		_ = env.LoadDouble(addr)
	})
	c := sys.Procs[0].Cache
	if got := c.Stats.Hits.Value() + c.Stats.Misses.Value(); got != 2 {
		t.Errorf("cache accesses = %d, want 2 (one per 8-byte op)", got)
	}
}

func TestDeadlockDetectedByBudget(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	sys.Launch([]pe.Program{
		func(env *pe.Env) {
			env.Recv(sys.NodeOf(1), tie.Data) // never satisfied
		},
		func(env *pe.Env) {
			env.Recv(sys.NodeOf(0), tie.Data) // never satisfied
		},
	})
	err := sys.RunCtx(context.Background(), 20_000)
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("expected timeout on deadlock, got %v", err)
	}
}

func TestMessageLatencyScalesWithDistance(t *testing.T) {
	// One-way message latency between adjacent nodes must be less than
	// between far nodes; both well under the shared-memory round trip.
	measure := func(srcRank, dstRank int) int64 {
		sys := build(t, 8, 8, cache.WriteBack)
		var lat int64
		progs := make([]pe.Program, 8)
		for i := range progs {
			progs[i] = func(env *pe.Env) {}
		}
		progs[srcRank] = func(env *pe.Env) {
			env.Send(sys.NodeOf(dstRank), tie.Data, []uint32{9})
		}
		progs[dstRank] = func(env *pe.Env) {
			t0 := env.Now()
			env.Recv(sys.NodeOf(srcRank), tie.Data)
			lat = env.Now() - t0
		}
		sys.Launch(progs)
		if err := sys.RunCtx(context.Background(), 1_000_000); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	near := measure(0, 1)
	far := measure(0, 5)
	if near <= 0 || far <= near {
		t.Errorf("latency near=%d far=%d: expected far > near > 0", near, far)
	}
}
