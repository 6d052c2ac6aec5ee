package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
)

// Figure formats: the paper's figures and tables, and the kernel
// ablations, are render formats of a kernel scenario's rows, drawn here
// from the rows themselves, so a figure is a scenario file run through
// any front door (CLI, shards, daemon) and rendered in its format. The
// rows, CSV, JSON and roots of the run do not depend on the format.

// figure is one figure format: its name, the workloads whose rows it
// draws, what its caption and table assume of the kernel section, and
// its renderer. The renderer gets the section for the captions' problem
// size, L1 size and iteration counts, which no row carries.
type figure struct {
	format    string
	workloads []WorkloadKind
	// variants is the number of variant series the table draws; n and
	// cacheKB are the problem size and L1 size the caption names;
	// oneCache, writeBack and onePoint mark a caption that names the one
	// L1 size swept, write-back caches, or one configuration.
	variants, n, cacheKB          int
	oneCache, writeBack, onePoint bool
	draw                          func(c *KernelConfig, rows []Result) string
}

var jacobiOnly = []WorkloadKind{WorkloadJacobi}

// figures lists the figure formats in paper order: Figs 6-9 and T-1/T-2
// draw a jacobi sweep (Figs 7 and 9 read the sweeps of Figs 6 and 8), S-1
// a syncbench sweep and K-1 any mix of the kernels; detail prints every
// measured figure of one jacobi point.
var figures = []figure{
	{format: "fig6", workloads: jacobiOnly, variants: 1, n: 60,
		draw: timeTable("Fig. 6 — Execution time (cycles/iteration), 60x60 array")},
	{format: "fig7", workloads: jacobiOnly, variants: 1, n: 60,
		draw: paretoFigure("Fig. 7 — Optimal speedup vs chip area, 60x60 array")},
	{format: "fig8", workloads: jacobiOnly, variants: 1, n: 30, writeBack: true,
		draw: timeTable("Fig. 8 — Execution time (cycles/iteration), 30x30 array, write-back")},
	{format: "fig9", workloads: jacobiOnly, variants: 1, n: 30,
		draw: paretoFigure("Fig. 9 — Optimal speedup vs chip area, 30x30 array")},
	{format: "hybrid", workloads: jacobiOnly, variants: len(jacobi.AllVariants()), n: 60, cacheKB: 16, writeBack: true,
		draw: comparison("Hybrid vs shared-memory (60x60, 16 kB WB): paper reports 2x below the knee, up to >5x at 10 cores")},
	{format: "sync", workloads: jacobiOnly, variants: len(jacobi.AllVariants()), n: 60, cacheKB: 2, writeBack: true,
		draw: comparison("Miss-dominated regime (60x60, 2 kB WB): sync-only hybrid should track the full hybrid within 2-20%")},
	{format: "barrier", workloads: []WorkloadKind{WorkloadSyncbench}, oneCache: true, writeBack: true, draw: ablationTable},
	{format: "kernel", workloads: []WorkloadKind{WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench}, oneCache: true, writeBack: true, draw: ablationTable},
	{format: "detail", workloads: jacobiOnly, onePoint: true, draw: detail},
}

// figureOf returns the figure format named format, or nil.
func figureOf(format string) *figure {
	for i := range figures {
		if figures[i].format == format {
			return &figures[i]
		}
	}
	return nil
}

// fitFigure returns nil unless format is a figure format that cannot draw
// the rows of the workloads kinds under the kernel section c, or whose
// caption c would contradict.
func fitFigure(format string, kinds []WorkloadKind, c *KernelConfig) error {
	f := figureOf(format)
	if f == nil {
		return nil
	}
	for _, k := range kinds {
		if !slices.Contains(f.workloads, k) {
			names := make([]string, len(f.workloads))
			for i, w := range f.workloads {
				names[i] = w.String()
			}
			return fmt.Errorf("format %q draws %s rows, and this scenario runs %v", format, strings.Join(names, "/"), k)
		}
	}
	if c == nil {
		return fmt.Errorf("format %q draws a kernel section, and this scenario has none", format)
	}
	ks, err := c.sweep()
	if err != nil {
		return err
	}
	if f.variants > 0 && len(ks.variants) != f.variants {
		return fmt.Errorf("format %q draws %d variant series, and this scenario sweeps %d %v", format, f.variants, len(ks.variants), ks.variants)
	}
	if f.n > 0 && ks.n != f.n {
		return fmt.Errorf("format %q is captioned %dx%d, and this scenario's kernel.n is %d", format, f.n, f.n, ks.n)
	}
	if f.cacheKB > 0 && !slices.Equal(ks.cachesKB, []int{f.cacheKB}) {
		return fmt.Errorf("format %q is captioned %d kB, and this scenario's kernel.cache_kb is %v", format, f.cacheKB, ks.cachesKB)
	}
	if f.oneCache && len(ks.cachesKB) != 1 {
		return fmt.Errorf("format %q is captioned with one L1 size, and this scenario's kernel.cache_kb is %v", format, ks.cachesKB)
	}
	if f.writeBack && !slices.Equal(ks.policies, []cache.Policy{cache.WriteBack}) {
		return fmt.Errorf("format %q is captioned write-back, and this scenario sweeps the policies %v", format, ks.policies)
	}
	if n := len(kinds) * len(ks.jobs()); f.onePoint && n != 1 {
		return fmt.Errorf("format %q describes one point, and this scenario has %d", format, n)
	}
	return nil
}

// Render renders the results of a run of s in the format choice resolves
// to (ResolveFormat). A figure format draws its figure from the rows; a
// row format renders them through the package-level Render.
func (s *Scenario) Render(results []Result, choice string) (string, error) {
	format, err := s.ResolveFormat(choice)
	if err != nil {
		return "", err
	}
	f := figureOf(format)
	if f == nil {
		return Render(results, format)
	}
	return f.draw(s.Kernel, results), nil
}

// timeTable draws the execution-time-vs-cores table of Figures 6 and 8:
// one row per core count, one column per (cache size, policy) series,
// values in clock cycles per Jacobi iteration.
func timeTable(title string) func(*KernelConfig, []Result) string {
	return func(_ *KernelConfig, rows []Result) string {
		type cell struct {
			cores, kb int
			policy    string
		}
		var caches, cores []int
		policies := map[string]bool{}
		cycles := map[cell]int64{}
		for _, r := range rows {
			caches = append(caches, r.CacheKB)
			cores = append(cores, r.Cores)
			policies[r.Policy] = true
			cycles[cell{r.Cores, r.CacheKB, r.Policy}] = r.CyclesPerIter
		}
		slices.Sort(caches)
		caches = slices.Compact(caches)
		slices.Sort(cores)
		cores = slices.Compact(cores)
		var pols []string
		for _, pol := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
			if policies[pol.String()] {
				pols = append(pols, pol.String())
			}
		}

		var b strings.Builder
		fmt.Fprintf(&b, "%s\n", title)
		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(w, "cores\t")
		for _, pol := range pols {
			for _, kb := range caches {
				fmt.Fprintf(w, "%dkB$%s\t", kb, pol)
			}
		}
		fmt.Fprintln(w)
		for _, c := range cores {
			fmt.Fprintf(w, "%d\t", c)
			for _, pol := range pols {
				for _, kb := range caches {
					if v, ok := cycles[cell{c, kb, pol}]; ok {
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
}

// paretoFigure draws Figures 7 and 9: the optimal speedup-vs-area curve
// of the Fig. 6 or Fig. 8 sweep, with the kill rule's margins and knee.
func paretoFigure(title string) func(*KernelConfig, []Result) string {
	return func(_ *KernelConfig, rows []Result) string {
		return paretoTable(paretoFront(rows), title)
	}
}

// paretoFront returns the rows that are not Pareto-dominated (no other
// row has smaller-or-equal area and strictly higher speedup), sorted by
// increasing area. Among equal-area rows only the fastest survives.
func paretoFront(rows []Result) []Result {
	sorted := slices.Clone(rows)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AreaMM2 != sorted[j].AreaMM2 {
			return sorted[i].AreaMM2 < sorted[j].AreaMM2
		}
		return sorted[i].Speedup > sorted[j].Speedup
	})
	var front []Result
	best := -1.0
	for _, r := range sorted {
		if r.Speedup > best {
			front = append(front, r)
			best = r.Speedup
		}
	}
	return front
}

// killStep is one step up a Pareto front under the kill rule: the
// relative performance gain and relative area increase over the last
// configuration the rule kept, and whether the rule keeps this one.
type killStep struct {
	dPerf, dArea float64
	kept         bool
}

// killRule applies the paper's "kill if less than linear" rule ([19]) to
// a Pareto front: walking up the front, a step is worth taking only if
// the relative performance gain is at least the relative area increase.
// It returns the index (into front) of the last configuration that still
// satisfies the rule — the paper's optimal design point — or -1 for an
// empty front, and one step per configuration after the first.
func killRule(front []Result) (knee int, steps []killStep) {
	if len(front) == 0 {
		return -1, nil
	}
	for i := 1; i < len(front); i++ {
		prev, cur := front[knee], front[i]
		dPerf := (cur.Speedup - prev.Speedup) / prev.Speedup
		dArea := (cur.AreaMM2 - prev.AreaMM2) / prev.AreaMM2
		kept := dArea <= 0 || dPerf >= dArea
		if kept {
			knee = i
		}
		steps = append(steps, killStep{dPerf, dArea, kept})
	}
	return knee, steps
}

// paretoTable renders a Pareto front with the paper-style configuration
// labels, each step's kill-rule margin (dPerf against dArea, over the
// last configuration kept) and the knee marked.
func paretoTable(front []Result, title string) string {
	knee, steps := killRule(front)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "area(mm2)\tspeedup\tconfig\tdPerf\tdArea\tkill-rule\t\n")
	for i, r := range front {
		dPerf, dArea, mark := "-", "-", ""
		if i > 0 {
			s := steps[i-1]
			dPerf, dArea = fmt.Sprintf("%.3f", s.dPerf), fmt.Sprintf("%.3f", s.dArea)
			if !s.kept {
				mark = "killed"
			}
		}
		if i == knee {
			mark = "<= optimal (kill rule)"
		}
		fmt.Fprintf(w, "%.2f\t%.2f\t%dP_%dk$\t%s\t%s\t%s\t\n", r.AreaMM2, r.Speedup, r.Cores, r.CacheKB, dPerf, dArea, mark)
	}
	w.Flush()
	return b.String()
}

// compareRow holds the three programming-model variants evaluated on one
// configuration, reproducing the paper's hybrid vs shared-memory
// analysis (T-1 and T-2).
type compareRow struct {
	cores, cacheKB int

	hybridFull int64 // cycles/iteration, data + sync over messages
	hybridSync int64 // cycles/iteration, data over shared memory, sync over messages
	pureSM     int64 // cycles/iteration, pure shared memory

	missRate float64 // hybrid-full L1 miss rate (locates the cache knee)

	// fullVsSM is the headline ratio: pure shared memory time over
	// hybrid-full time (the paper reports 2x below the cache knee growing
	// to >5x at 10 cores / 16 kB). syncVsSM isolates the synchronization
	// benefit (pure-SM over hybrid-sync time), fullVsSync the
	// data-exchange benefit (hybrid-sync over hybrid-full time).
	fullVsSM, syncVsSM, fullVsSync float64
}

// compareRows pairs the hybrid-full, hybrid-sync and pure-sm series of a
// jacobi sweep into one row per configuration, in the order the
// configurations first appear.
func compareRows(rows []Result) []compareRow {
	type config struct {
		cores, kb int
		policy    string
	}
	var out []compareRow
	at := map[config]int{}
	for _, r := range rows {
		c := config{r.Cores, r.CacheKB, r.Policy}
		i, ok := at[c]
		if !ok {
			i = len(out)
			at[c] = i
			out = append(out, compareRow{cores: r.Cores, cacheKB: r.CacheKB})
		}
		switch row := &out[i]; r.Variant {
		case jacobi.HybridFull.String():
			row.hybridFull = r.CyclesPerIter
			row.missRate = r.MissRate
		case jacobi.HybridSync.String():
			row.hybridSync = r.CyclesPerIter
		case jacobi.PureSM.String():
			row.pureSM = r.CyclesPerIter
		}
	}
	for i := range out {
		row := &out[i]
		row.fullVsSM = float64(row.pureSM) / float64(row.hybridFull)
		row.syncVsSM = float64(row.pureSM) / float64(row.hybridSync)
		row.fullVsSync = float64(row.hybridSync) / float64(row.hybridFull)
	}
	return out
}

// comparison draws T-1 or T-2 from a three-variant jacobi sweep.
func comparison(title string) func(*KernelConfig, []Result) string {
	return func(_ *KernelConfig, rows []Result) string {
		return compareTable(compareRows(rows), title)
	}
}

// compareTable renders the hybrid vs shared-memory analysis rows.
func compareTable(rows []compareRow, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "cores\tcache\tmiss%%\thybrid-full\thybrid-sync\tpure-sm\tfull/sm\tsync/sm\tfull-vs-sync\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%dkB\t%.1f\t%d\t%d\t%d\t%.2fx\t%.2fx\t%.2fx\t\n",
			r.cores, r.cacheKB, 100*r.missRate,
			r.hybridFull, r.hybridSync, r.pureSM,
			r.fullVsSM, r.syncVsSM, r.fullVsSync)
	}
	w.Flush()
	return b.String()
}

// messagingAdvantage reduces ablation rows to the paper's headline ratio
// per kernel: the largest pure-sm/hybrid-full cycle ratio across matching
// configurations — how much the message path wins, at its best, for each
// communication profile.
func messagingAdvantage(rows []Result) map[string]float64 {
	type config struct {
		workload       string
		cores, cacheKB int
		policy         string
	}
	full := map[config]int64{}
	for i := range rows {
		if r := &rows[i]; r.Variant == jacobi.HybridFull.String() {
			full[config{r.Workload, r.Cores, r.CacheKB, r.Policy}], _ = kernelCycles(r)
		}
	}
	best := map[string]float64{}
	for i := range rows {
		r := &rows[i]
		if r.Variant != jacobi.PureSM.String() {
			continue
		}
		f, ok := full[config{r.Workload, r.Cores, r.CacheKB, r.Policy}]
		if !ok || f == 0 {
			continue
		}
		sm, _ := kernelCycles(r)
		if ratio := float64(sm) / float64(f); ratio > best[r.Workload] {
			best[r.Workload] = ratio
		}
	}
	return best
}

// peakSpeedup reduces ablation rows to the best scaling each kernel
// reached under the message-passing model: its highest Speedup (relative
// to the smallest configuration of the same series).
func peakSpeedup(rows []Result) map[string]float64 {
	best := map[string]float64{}
	for _, r := range rows {
		if r.Variant != jacobi.HybridFull.String() {
			continue
		}
		if b, ok := best[r.Workload]; !ok || r.Speedup > b {
			best[r.Workload] = r.Speedup
		}
	}
	return best
}

// ablationTable draws K-1 and S-1 as an aligned table, one row per
// (kernel, variant, cores) with a per-kernel summary row of the best
// message-over-shared-memory ratio and the peak message-path speedup.
// The caption names the section's problem size and its first L1 size.
func ablationTable(c *KernelConfig, rows []Result) string {
	var b strings.Builder
	// N only means something when a kernel with a problem size is swept;
	// a syncbench-only table (S-1, examples/figures/barrier.json) omits it.
	size := ""
	for _, r := range rows {
		if r.Workload != WorkloadSyncbench.String() {
			size = fmt.Sprintf("N=%d, ", c.N)
			break
		}
	}
	fmt.Fprintf(&b, "K-1 kernel ablation: %s%d kB write-back L1s, message passing vs shared memory\n",
		size, c.CacheKB[0])
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "kernel\tvariant\tcores\tcycles\tspeedup\tmpmmu-busy\tnoc-flits\t")
	adv := messagingAdvantage(rows)
	peak := peakSpeedup(rows)
	// A sweep can lack one side of a reducer (e.g. -variants pure-sm has
	// no message-passing rows); print n/a rather than a measured-looking 0x.
	ratio := func(m map[string]float64, k string) string {
		if v, ok := m[k]; ok {
			return fmt.Sprintf("%.2fx", v)
		}
		return "n/a"
	}
	summary := func(k string) {
		fmt.Fprintf(w, "%s summary\t\t\t\tpeak %s\tsm/mp max %s\t\t\n", k, ratio(peak, k), ratio(adv, k))
	}
	last := ""
	for i := range rows {
		r := &rows[i]
		if r.Workload != last && last != "" {
			summary(last)
		}
		last = r.Workload
		cycles, _ := kernelCycles(r)
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.2f\t%d\t%d\t\n",
			r.Workload, r.Variant, r.Cores, cycles, r.Speedup, r.MPMMUBusy, r.NoCFlits)
	}
	if last != "" {
		summary(last)
	}
	w.Flush()
	return b.String()
}

// detail prints every measured figure of a one-point jacobi run: the
// configuration, then cycles per iteration, the whole run's cycles, the
// L1 miss rate, and the network's flits, mean flit latency and
// deflections beside the memory node's busy cycles.
func detail(c *KernelConfig, rows []Result) string {
	ks, _ := c.sweep() // fitFigure resolved it before any point ran
	// The fabric and the arbiter every kernel point runs on.
	fabric := core.DefaultConfig(0, 0, cache.WriteBack)
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, `MEDEA %dx%d folded torus, %d compute cores + MPMMU
L1: %d kB %s, arbiter: %v
workload: %dx%d Jacobi, %s, %d warm-up + %d measured iterations
verified against the sequential reference: OK

cycles/iteration (after warm-up): %d
total cycles:                     %d
mean L1 miss rate:                %.2f%%
NoC flits delivered:              %d
mean flit latency:                %.1f cycles
deflections:                      %d
MPMMU busy cycles:                %d
`, fabric.TorusW, fabric.TorusH, r.Cores, r.CacheKB, r.Policy, fabric.Arbiter,
			ks.n, ks.n, r.Variant, ks.warmup, ks.measured,
			r.CyclesPerIter, r.TotalCycles, 100*r.MissRate, r.NoCFlits, r.MeanLatency, r.Deflections, r.MPMMUBusy)
	}
	return b.String()
}
