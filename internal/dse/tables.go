package dse

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/cache"
)

// Fig6Table renders the execution-time-vs-cores table behind Figure 6/8:
// one row per core count, one column per (cache size, policy) series,
// values in clock cycles per Jacobi iteration.
func Fig6Table(points []KernelPoint, title string) string {
	caches := map[int]bool{}
	cores := map[int]bool{}
	policies := map[cache.Policy]bool{}
	byKey := map[[3]int]int64{}
	for _, p := range points {
		caches[p.CacheKB] = true
		cores[p.Compute] = true
		policies[p.Policy] = true
		byKey[[3]int{p.Compute, p.CacheKB, int(p.Policy)}] = p.Cycles
	}
	cacheList := sortedKeys(caches)
	coreList := sortedKeys(cores)
	var polList []cache.Policy
	for _, pol := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
		if policies[pol] {
			polList = append(polList, pol)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "cores\t")
	for _, pol := range polList {
		for _, kb := range cacheList {
			fmt.Fprintf(w, "%dkB$%v\t", kb, pol)
		}
	}
	fmt.Fprintln(w)
	for _, c := range coreList {
		fmt.Fprintf(w, "%d\t", c)
		for _, pol := range polList {
			for _, kb := range cacheList {
				if v, ok := byKey[[3]int{c, kb, int(pol)}]; ok {
					fmt.Fprintf(w, "%d\t", v)
				} else {
					fmt.Fprintf(w, "-\t")
				}
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// ParetoTable renders the optimal speedup-vs-area curve of Figures 7/9:
// the Pareto front with the paper-style configuration labels and the
// kill-rule knee marked.
func ParetoTable(front []KernelPoint, knee int, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "area(mm2)\tspeedup\tconfig\tkill-rule\t\n")
	for i, p := range front {
		mark := ""
		if i == knee {
			mark = "<= optimal (kill rule)"
		}
		fmt.Fprintf(w, "%.2f\t%.2f\t%dP_%dk$\t%s\t\n", p.AreaMM2, p.Speedup, p.Compute, p.CacheKB, mark)
	}
	w.Flush()
	return b.String()
}

// CompareTable renders the hybrid vs shared-memory analysis rows.
func CompareTable(rows []CompareRow, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "cores\tcache\tmiss%%\thybrid-full\thybrid-sync\tpure-sm\tfull/sm\tsync/sm\tfull-vs-sync\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%dkB\t%.1f\t%d\t%d\t%d\t%.2fx\t%.2fx\t%.2fx\t\n",
			r.Compute, r.CacheKB, 100*r.MissRate,
			r.HybridFull, r.HybridSync, r.PureSM,
			r.FullVsSM, r.SyncVsSM, r.FullVsSync)
	}
	w.Flush()
	return b.String()
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
