// Jacobi: run the paper's benchmark workload — one Jacobi iteration of a
// 30x30 Laplace problem on 6 cores — in all three programming-model
// variants, verify each against the sequential reference, and print the
// comparison the paper's Section III makes in prose.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
)

func main() {
	log.SetFlags(0)

	spec := jacobi.Spec{N: 30, Warmup: 1, Measured: 2}
	cfg := core.DefaultConfig(6, 16, cache.WriteBack)

	fmt.Printf("Jacobi %dx%d on %d cores, %d kB write-back L1s\n\n",
		spec.N, spec.N, cfg.NumCompute, cfg.CacheKB)

	results := map[jacobi.Variant]jacobi.Result{}
	for _, v := range []jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM} {
		res, err := jacobi.RunCtx(context.Background(), cfg, spec, v)
		if err != nil {
			log.Fatal(err)
		}
		results[v] = res
		fmt.Printf("  %-12s %8d cycles/iter  (miss %4.1f%%, %6d flits, MPMMU busy %d)\n",
			v.String()+":", res.CyclesPerIteration, 100*res.MissRate, res.NoCFlits, res.MPMMUBusy)
	}

	full := float64(results[jacobi.HybridFull].CyclesPerIteration)
	sync := float64(results[jacobi.HybridSync].CyclesPerIteration)
	pure := float64(results[jacobi.PureSM].CyclesPerIteration)
	fmt.Println()
	fmt.Println("every variant verified bit-exact against the sequential solver")
	fmt.Printf("hybrid (data+sync over messages) vs pure shared memory: %.2fx\n", pure/full)
	fmt.Printf("sync-only hybrid vs pure shared memory:                 %.2fx\n", pure/sync)
	fmt.Printf("full hybrid vs sync-only hybrid:                        %.2fx\n", sync/full)
}
