package dse

// This file implements the kernel axis and the kernel ablation
// (experiment K-1): every compute kernel (jacobi, matmul, syncbench) run
// in both of the paper's programming models — message passing
// (hybrid-full) against pure shared memory — across core counts, from one
// execution path. KernelSweepCtx is that path: the scenario runner's
// kernel workloads and every experiment of this package (Figs 6-9, T-1,
// T-2, K-1) are KernelOptions values it runs, so the declarative and
// programmatic results are golden-comparable point-for-point.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/par"
	"repro/internal/resultcache"
	"repro/internal/syncbench"
	"repro/internal/tie"
)

// Kernel selects a compute kernel for KernelSweepCtx. Kernels are a
// first-class sweep axis: every kind runs on the same full MEDEA system
// (cores + caches + MPMMU over the NoC) under the same Variant vocabulary,
// so the cost of the two communication paths is directly comparable across
// workloads with opposite communication profiles.
type Kernel int

// The three kernel implementations.
const (
	// KernelJacobi is the paper's application: per-iteration halo exchange
	// (latency-bound communication).
	KernelJacobi Kernel = iota
	// KernelMatmul is the future-work matrix multiply: one bulk broadcast
	// (bandwidth-bound communication).
	KernelMatmul
	// KernelSyncbench is the bare synchronization episode: barriers with
	// no compute around them (pure synchronization latency).
	KernelSyncbench

	// numKernels counts the defined kernels (keep it last).
	numKernels
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelJacobi:
		return "jacobi"
	case KernelMatmul:
		return "matmul"
	case KernelSyncbench:
		return "syncbench"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// AllKernels returns every defined kernel in declaration order.
func AllKernels() []Kernel {
	out := make([]Kernel, numKernels)
	for i := range out {
		out[i] = Kernel(i)
	}
	return out
}

// KernelNames returns the canonical names of every kernel, for flag
// documentation and error messages.
func KernelNames() []string {
	names := make([]string, numKernels)
	for i := range names {
		names[i] = Kernel(i).String()
	}
	return names
}

// ParseKernel resolves a kernel from its canonical name (as printed by
// Kernel.String) or its numeric value. Matching is case-insensitive and
// accepts "_" for "-", mirroring noc.ParseRouter.
func ParseKernel(s string) (Kernel, error) {
	norm := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), "_", "-")
	for k := Kernel(0); k < numKernels; k++ {
		if norm == k.String() {
			return k, nil
		}
	}
	if n, err := strconv.Atoi(norm); err == nil {
		if n >= 0 && n < int(numKernels) {
			return Kernel(n), nil
		}
		return 0, fmt.Errorf("dse: kernel index %d out of range [0, %d)", n, int(numKernels))
	}
	return 0, fmt.Errorf("dse: unknown kernel %q (have: %s)", s, strings.Join(KernelNames(), ", "))
}

// Supports reports whether the kernel defines the given variant. Jacobi
// and matmul implement all three programming models; syncbench measures
// the synchronization primitive itself, so the data-path-only distinction
// between hybrid-full and hybrid-sync does not exist for it — it offers
// the message barrier (hybrid-full) and the lock barrier (pure-sm).
func (k Kernel) Supports(v jacobi.Variant) bool {
	if k == KernelSyncbench {
		return v == jacobi.HybridFull || v == jacobi.PureSM
	}
	return true
}

// KernelOptions parameterizes a KernelSweepCtx over one kernel.
type KernelOptions struct {
	Kernel Kernel
	// N is the problem size: the grid edge for jacobi, the matrix edge for
	// matmul; syncbench ignores it.
	N int
	// Rounds is the number of synchronization episodes syncbench averages
	// over (default 20); the other kernels ignore it.
	Rounds int
	// Cores, CachesKB and Policies are the design-space axes (compute
	// cores, per-core L1 kB, write policy). Policies defaults to
	// write-back.
	Cores    []int
	CachesKB []int
	Policies []cache.Policy
	// Variants lists the programming models to sweep; defaults to
	// hybrid-full only. Every listed variant must be supported by the
	// kernel (syncbench has no hybrid-sync).
	Variants []jacobi.Variant
	// Warmup and Measured are jacobi iteration counts (default 1 each);
	// the other kernels ignore them.
	Warmup   int
	Measured int
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, content-addresses each point's simulation
	// result: a repeated point is served from the store instead of
	// resimulated, and concurrent evaluations of the same point collapse
	// to one run. nil means cache off; results are byte-identical either
	// way (the differential battery in internal/scenario enforces this).
	Cache *resultcache.Cache
	// Record, when non-nil, observes every message send of every point
	// (core.Config.Record). Recording bypasses Cache: a hit skips the
	// simulation and would record nothing.
	Record tie.SendRecorder
	// Points, when non-nil, restricts the sweep to the listed indices of
	// the canonical (variant, policy, cache, cores) order, variants
	// outermost — the shard layer's hook. Indices must be strictly
	// increasing and in range; the result slice follows Points order.
	// Speedup is not attached (it is a cross-point figure the merger
	// recomputes over the full grid).
	Points []int
}

// KernelPoint is one evaluated (kernel, variant, configuration) point.
type KernelPoint struct {
	Kernel  Kernel
	Variant jacobi.Variant
	Compute int
	CacheKB int
	Policy  cache.Policy

	// Cycles is the kernel's headline metric: cycles per iteration for
	// jacobi, total barrier-to-barrier cycles for matmul, cycles per
	// synchronization episode for syncbench.
	Cycles int64
	// TransferCycles covers matmul's B-distribution phase (0 otherwise).
	TransferCycles int64
	// MissRate is jacobi's mean L1 miss rate (0 otherwise).
	MissRate float64
	// AreaMM2 applies the chip-area model to the configuration.
	AreaMM2 float64
	// MPMMUBusy and NoCFlits quantify where the communication went:
	// memory-node occupancy versus message-path traffic.
	MPMMUBusy int64
	NoCFlits  int64
	// Speedup is relative to the smallest-area configuration of the same
	// (kernel, variant) series (see AttachKernelSpeedup).
	Speedup float64
	// CyclesSkipped counts cycles the engine fast-forwarded over while
	// simulating this point. A pure performance counter: it is 0 when the
	// point was recalled from the result cache, and it never enters a
	// table, CSV, JSON row or cache value — measured figures are
	// byte-identical whatever it holds.
	CyclesSkipped int64
}

func (o *KernelOptions) withDefaults() error {
	if len(o.Cores) == 0 {
		return fmt.Errorf("dse: kernel sweep needs at least one core count")
	}
	if len(o.CachesKB) == 0 {
		return fmt.Errorf("dse: kernel sweep needs at least one cache size")
	}
	if len(o.Policies) == 0 {
		o.Policies = []cache.Policy{cache.WriteBack}
	}
	if len(o.Variants) == 0 {
		o.Variants = []jacobi.Variant{jacobi.HybridFull}
	}
	for _, v := range o.Variants {
		if !o.Kernel.Supports(v) {
			return fmt.Errorf("dse: the %v kernel has no %v variant (it measures the barrier itself; use %v or %v)",
				o.Kernel, v, jacobi.HybridFull, jacobi.PureSM)
		}
	}
	if o.Rounds == 0 {
		o.Rounds = 20
	}
	if o.Rounds < 0 {
		return fmt.Errorf("dse: rounds must be positive, got %d", o.Rounds)
	}
	if o.Warmup == 0 && o.Measured == 0 {
		o.Warmup, o.Measured = 1, 1
	}
	if o.Measured == 0 {
		o.Measured = 1
	}
	switch o.Kernel {
	case KernelJacobi, KernelMatmul:
		if o.N <= 0 {
			return fmt.Errorf("dse: the %v kernel needs a problem size N", o.Kernel)
		}
	}
	return nil
}

// kernelJob is one point of the canonical sweep order.
type kernelJob struct {
	variant   jacobi.Variant
	policy    cache.Policy
	kb, cores int
}

// enumerate lists the sweep in canonical order: variants outermost, then
// policy, cache, cores.
func (o *KernelOptions) enumerate() []kernelJob {
	var jobs []kernelJob
	for _, v := range o.Variants {
		for _, pol := range o.Policies {
			for _, kb := range o.CachesKB {
				for _, c := range o.Cores {
					jobs = append(jobs, kernelJob{variant: v, policy: pol, kb: kb, cores: c})
				}
			}
		}
	}
	return jobs
}

// runPoint simulates (or recalls from the cache) one point.
func (o *KernelOptions) runPoint(ctx context.Context, j kernelJob) (KernelPoint, error) {
	cfg := core.DefaultConfig(j.cores, j.kb, j.policy)
	cfg.Record = o.Record
	rc := o.Cache
	if o.Record != nil {
		rc = nil
	}
	p := KernelPoint{
		Kernel: o.Kernel, Variant: j.variant,
		Compute: j.cores, CacheKB: j.kb, Policy: j.policy,
		AreaMM2: Area(j.cores, j.kb, cfg.MPMMUCacheKB),
	}
	switch o.Kernel {
	case KernelJacobi:
		spec := jacobi.Spec{N: o.N, Warmup: o.Warmup, Measured: o.Measured}
		val, skipped, err := jacobiPointValueCached(ctx, rc, cfg, spec, j.variant, j.cores, j.kb, j.policy)
		if err != nil {
			return p, err
		}
		p.Cycles = val.CyclesPerIter
		p.MissRate = val.MissRate
		p.MPMMUBusy = val.MPMMUBusy
		p.NoCFlits = val.NoCFlits
		p.CyclesSkipped = skipped
	case KernelMatmul:
		val, skipped, err := matmulPointValueCached(ctx, rc, cfg, o.N, j.variant, j.cores, j.kb, j.policy)
		if err != nil {
			return p, err
		}
		p.Cycles = val.Cycles
		p.TransferCycles = val.TransferCycles
		p.MPMMUBusy = val.MPMMUBusy
		p.NoCFlits = val.NoCFlits
		p.CyclesSkipped = skipped
	case KernelSyncbench:
		kind := syncbench.MessageBarrier
		if j.variant == jacobi.PureSM {
			kind = syncbench.LockBarrier
		}
		val, skipped, err := syncbenchPointValueCached(ctx, rc, cfg, kind, o.Rounds, j.cores, j.kb, j.policy)
		if err != nil {
			return p, err
		}
		p.Cycles = val.Cycles
		p.MPMMUBusy = val.MPMMUBusy
		p.NoCFlits = val.NoCFlits
		p.CyclesSkipped = skipped
	}
	return p, nil
}

// KernelSweepCtx evaluates the variants x policies x caches x cores
// cross-product of one kernel and returns the points in deterministic
// axis order (variants outermost, then policy, cache, cores). Speedup is
// attached per variant series on an unfiltered sweep. This is the single
// execution path behind scenario kernel workloads and every experiment
// of cmd/medea-experiments. Runs execute concurrently; each simulation is
// independently deterministic, so the result set is reproducible. A
// canceled context stops dispatching new points, interrupts in-flight
// simulations, and returns the context's error (wrapped in a
// par.CanceledError recording how many points had finished). A panic
// inside one point is isolated to that point and surfaces as a
// *par.PanicError instead of crashing the sweep.
func KernelSweepCtx(ctx context.Context, o KernelOptions) ([]KernelPoint, error) {
	if err := o.withDefaults(); err != nil {
		return nil, err
	}
	pts, err := par.Sweep(ctx, o.enumerate(), o.Points, o.Parallelism, o.runPoint)
	if err != nil {
		return nil, err
	}
	if o.Points == nil {
		per := len(pts) / len(o.Variants)
		for vi := range o.Variants {
			AttachKernelSpeedup(pts[vi*per : (vi+1)*per])
		}
	}
	return pts, nil
}

// AttachKernelSpeedup fills Speedup relative to the smallest-area
// configuration of the series ("starting from the architecture with the
// smallest area", as the paper's pruning does); equal areas break toward
// the slower point. A series spans every policy, so write-through points
// share the write-back baseline and speedups are comparable across
// policies. Exported for the shard merger, which reassembles full series
// from per-shard rows and must reattach the cross-point Speedup with this
// exact algorithm.
func AttachKernelSpeedup(points []KernelPoint) {
	if len(points) == 0 {
		return
	}
	base := -1
	for i, p := range points {
		if base < 0 || p.AreaMM2 < points[base].AreaMM2 ||
			(p.AreaMM2 == points[base].AreaMM2 && p.Cycles > points[base].Cycles) {
			base = i
		}
	}
	ref := float64(points[base].Cycles)
	for i := range points {
		points[i].Speedup = ref / float64(points[i].Cycles)
	}
}

// K1Options returns the calibrated K-1 sweep of one kernel: the paper's
// 30x30 problem size with 16 kB write-back L1s (the T-1 sweet spot, where
// caches hold the working set and the communication paths dominate), in
// both programming models, across the Quick core range. The ablation is
// one such sweep per kernel; examples/scenarios/kernel-ablation.json is
// the same three values as a file.
func K1Options(k Kernel) KernelOptions {
	return KernelOptions{
		Kernel:   k,
		N:        30,
		Rounds:   20,
		Cores:    []int{2, 4, 6, 8, 10, 12},
		CachesKB: []int{16},
		Variants: []jacobi.Variant{jacobi.HybridFull, jacobi.PureSM},
		Warmup:   1,
		Measured: 1,
	}
}

// MessagingAdvantageByKernel reduces ablation points to the paper's
// headline ratio per kernel: the largest pure-sm/hybrid-full cycle ratio
// across matching configurations — how much the message path wins, at its
// best, for each communication profile.
func MessagingAdvantageByKernel(points []KernelPoint) map[Kernel]float64 {
	type key struct {
		k       Kernel
		cores   int
		cacheKB int
		policy  cache.Policy
	}
	full := map[key]int64{}
	for _, p := range points {
		if p.Variant == jacobi.HybridFull {
			full[key{p.Kernel, p.Compute, p.CacheKB, p.Policy}] = p.Cycles
		}
	}
	best := map[Kernel]float64{}
	for _, p := range points {
		if p.Variant != jacobi.PureSM {
			continue
		}
		f, ok := full[key{p.Kernel, p.Compute, p.CacheKB, p.Policy}]
		if !ok || f == 0 {
			continue
		}
		if r := float64(p.Cycles) / float64(f); r > best[p.Kernel] {
			best[p.Kernel] = r
		}
	}
	return best
}

// PeakSpeedupByKernel reduces ablation points to the best scaling each
// kernel reached under the message-passing model: its highest Speedup
// (relative to the smallest configuration of the same series).
func PeakSpeedupByKernel(points []KernelPoint) map[Kernel]float64 {
	best := map[Kernel]float64{}
	for _, p := range points {
		if p.Variant != jacobi.HybridFull {
			continue
		}
		if _, ok := best[p.Kernel]; !ok || p.Speedup > best[p.Kernel] {
			best[p.Kernel] = p.Speedup
		}
	}
	return best
}

// KernelAblationTable renders the ablation as an aligned table, one row
// per (kernel, variant, cores) with a per-kernel summary row of the best
// message-over-shared-memory ratio and the peak message-path speedup. o
// is the K1Options value of any swept kernel: the caption takes its
// problem size and its one cache size, which every kernel's sweep shares.
func KernelAblationTable(o KernelOptions, points []KernelPoint) string {
	var b strings.Builder
	// N only means something when a kernel with a problem size is swept;
	// a syncbench-only table (cmd/medea-experiments -fig barrier) omits it.
	size := ""
	for _, p := range points {
		if p.Kernel != KernelSyncbench {
			size = fmt.Sprintf("N=%d, ", o.N)
			break
		}
	}
	fmt.Fprintf(&b, "K-1 kernel ablation: %s%d kB write-back L1s, message passing vs shared memory\n",
		size, o.CachesKB[0])
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "kernel\tvariant\tcores\tcycles\tspeedup\tmpmmu-busy\tnoc-flits\t")
	adv := MessagingAdvantageByKernel(points)
	peak := PeakSpeedupByKernel(points)
	var last Kernel = -1
	// A sweep can lack one side of a reducer (e.g. -variants pure-sm has
	// no message-passing rows); print n/a rather than a measured-looking 0x.
	ratio := func(m map[Kernel]float64, k Kernel) string {
		if v, ok := m[k]; ok {
			return fmt.Sprintf("%.2fx", v)
		}
		return "n/a"
	}
	summary := func(k Kernel) {
		fmt.Fprintf(w, "%v summary\t\t\t\tpeak %s\tsm/mp max %s\t\t\n", k, ratio(peak, k), ratio(adv, k))
	}
	for _, p := range points {
		if p.Kernel != last && last >= 0 {
			summary(last)
		}
		last = p.Kernel
		fmt.Fprintf(w, "%v\t%v\t%d\t%d\t%.2f\t%d\t%d\t\n",
			p.Kernel, p.Variant, p.Compute, p.Cycles, p.Speedup, p.MPMMUBusy, p.NoCFlits)
	}
	if last >= 0 {
		summary(last)
	}
	w.Flush()
	return b.String()
}
