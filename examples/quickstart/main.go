// Quickstart: build a 4x4 MEDEA system, exchange messages between two
// cores over the TIE/NoC path, touch shared memory through the MPMMU, and
// print the latencies — a five-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/tie"
)

func main() {
	log.SetFlags(0)

	// A 4x4 folded torus with 2 compute cores, 8 kB write-back L1s and
	// the MPMMU on node 0 (the paper's smallest interesting system).
	sys, err := core.Build(core.DefaultConfig(2, 8, cache.WriteBack))
	if err != nil {
		log.Fatal(err)
	}
	n0, n1 := sys.NodeOf(0), sys.NodeOf(1)

	var msgRTT, memLat int64
	progs := []pe.Program{
		// Rank 0: ping-pong a message, then time one shared-memory read.
		func(env *pe.Env) {
			t0 := env.Now()
			env.Send(n1, tie.Data, []uint32{0xBEEF})
			env.Recv(n1, tie.Data)
			msgRTT = env.Now() - t0

			addr := sys.Map.SharedAddr(0x100)
			t0 = env.Now()
			_ = env.LoadWordUncached(addr)
			memLat = env.Now() - t0
		},
		// Rank 1: echo.
		func(env *pe.Env) {
			pkt := env.Recv(n0, tie.Data)
			env.Send(n0, tie.Data, pkt.Words[:1])
		},
	}
	sys.Launch(progs)
	if err := sys.RunCtx(context.Background(), 1_000_000); err != nil {
		log.Fatal(err)
	}

	fmt.Println("MEDEA quickstart — 4x4 folded torus, deflection routing")
	fmt.Printf("  compute cores:                %d (nodes %d and %d), MPMMU on node %d\n",
		len(sys.Procs), n0, n1, sys.Cfg.MPMMUNode)
	fmt.Printf("  message round trip (1 word):  %d cycles\n", msgRTT)
	fmt.Printf("  shared-memory uncached read:  %d cycles\n", memLat)
	fmt.Printf("  NoC flits delivered:          %d (mean latency %.1f cycles, %d deflections)\n",
		sys.Net.Stats.Delivered.Value(), sys.Net.Stats.Latency.Mean(), sys.Net.TotalDeflections())
	fmt.Println()
	fmt.Println("The gap between those two latencies is the paper's thesis:")
	fmt.Println("synchronization over the NoC message path avoids the memory node.")
}
