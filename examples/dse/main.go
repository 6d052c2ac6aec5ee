// DSE: a miniature design-space exploration in the style of Figure 7 —
// sweep cores and cache sizes on a 16x16 Jacobi problem, prune to the
// Pareto front and apply the kill rule to pick the area-optimal design.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/jacobi"
)

func main() {
	log.SetFlags(0)

	o := dse.KernelOptions{
		Kernel:   dse.KernelJacobi,
		N:        16,
		Cores:    []int{2, 4, 6, 8, 10, 12, 14},
		CachesKB: []int{2, 4, 8, 16},
		Policies: []cache.Policy{cache.WriteBack},
		Variants: []jacobi.Variant{jacobi.HybridFull},
		Warmup:   1,
		Measured: 1,
	}
	fmt.Printf("sweeping %d configurations of a 16x16 Jacobi problem...\n\n",
		len(o.Cores)*len(o.CachesKB))
	points, err := dse.KernelSweepCtx(context.Background(), o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(dse.Fig6Table(points, "Execution time (cycles/iteration)"))
	front := dse.ParetoFront(points)
	knee := dse.KillRuleKnee(front)
	fmt.Println(dse.ParetoTable(front, knee, "Pareto front with kill-rule choice"))
	best := front[knee]
	fmt.Printf("area-optimal design: %dP_%dk$ — %.2f mm2, speedup %.1fx over the smallest system\n",
		best.Compute, best.CacheKB, best.AreaMM2, best.Speedup)
}
