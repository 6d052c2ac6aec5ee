// Package dse drives the design-space exploration of the paper's Section
// III: sweeps over core count, cache size and write policy (168
// configurations), the chip-area model, Pareto pruning and the kill-rule
// analysis that together produce Figures 6-9. Every experiment is a
// KernelOptions value run by KernelSweepCtx, the package's one sweep.
package dse

import "sort"

// PaperCores returns the paper's compute-core range: 2..15 (3..16 total
// nodes counting the MPMMU).
func PaperCores() []int {
	var out []int
	for c := 2; c <= 15; c++ {
		out = append(out, c)
	}
	return out
}

// PaperCaches returns the paper's cache sizes in kB: powers of two from 2
// to 64.
func PaperCaches() []int { return []int{2, 4, 8, 16, 32, 64} }

// ParetoFront returns the points that are not Pareto-dominated (no other
// point has smaller-or-equal area and strictly higher speedup), sorted by
// increasing area. Among equal-area points only the fastest survives.
func ParetoFront(points []KernelPoint) []KernelPoint {
	sorted := append([]KernelPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AreaMM2 != sorted[j].AreaMM2 {
			return sorted[i].AreaMM2 < sorted[j].AreaMM2
		}
		return sorted[i].Speedup > sorted[j].Speedup
	})
	var front []KernelPoint
	best := -1.0
	for _, p := range sorted {
		if p.Speedup > best {
			front = append(front, p)
			best = p.Speedup
		}
	}
	return front
}

// KillRuleKnee applies the paper's "kill if less than linear" rule ([19])
// to a Pareto front: walking up the front, a step is worth taking only if
// the relative performance gain is at least the relative area increase.
// It returns the index (into front) of the last configuration that still
// satisfies the rule — the paper's optimal design point.
func KillRuleKnee(front []KernelPoint) int {
	if len(front) == 0 {
		return -1
	}
	knee := 0
	for i := 1; i < len(front); i++ {
		prev, cur := front[knee], front[i]
		dPerf := (cur.Speedup - prev.Speedup) / prev.Speedup
		dArea := (cur.AreaMM2 - prev.AreaMM2) / prev.AreaMM2
		if dArea <= 0 || dPerf >= dArea {
			knee = i
		}
	}
	return knee
}
