package scenario

// The kernel workloads (jacobi, matmul, syncbench) on the full MEDEA
// system: the design-space exploration of the paper's Section III. A
// kernel sweep is the (variant, policy, cache, cores) cross-product of the
// scenario's kernel section, variants outermost; each kernel named on the
// workload axis contributes one block of that cross-product to the
// scenario's one point list (Scenario.points), each point one
// deterministic simulation. The chip-area model and the speedup over the
// smallest configuration are the two derived figures the Pareto analysis
// of Figs 7 and 9 reads (figures.go).
//
// Cache plumbing: a cached value holds only what the simulator produced;
// derived quantities (area, labels, speedups) recompute deterministically
// from the configuration and never enter the store, so a cache hit and a
// fresh run are indistinguishable byte for byte in every rendering. Each
// kernel stores under its own key domain ("dse/jacobi", "dse/matmul",
// "dse/syncbench"; the names are stored bytes, which disk caches written
// by earlier builds must keep hitting). Each key is built from what the
// simulator receives, through the key tags of jacobi.Spec, matmul.Spec and
// kernelJob (resultcache.KeyBuilder.Struct): the job's system part is the
// only input of core.DefaultConfig, so a key carries every option the
// result depends on and nothing it does not (matmul ignores jacobi's
// iteration counts, syncbench the problem size and keys its barrier kind
// and rounds beside the system), and equivalent points share one entry.

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/resultcache"
	"repro/internal/syncbench"
	"repro/internal/tie"
)

// kernelSweep is a kernel section with its defaults resolved (see
// KernelConfig.sweep): the axes of the canonical point order and the
// kernels' run lengths.
type kernelSweep struct {
	n               int
	variants        []jacobi.Variant
	policies        []cache.Policy
	cachesKB, cores []int
	// rounds is syncbench's episode count; warmup and measured are
	// jacobi's iteration counts.
	rounds, warmup, measured int
}

// jacobiSpec and matmulSpec are the problems every point of the sweep
// hands its kernel.
func (ks kernelSweep) jacobiSpec() jacobi.Spec {
	return jacobi.Spec{N: ks.n, Warmup: ks.warmup, Measured: ks.measured}
}

func (ks kernelSweep) matmulSpec() matmul.Spec { return matmul.Spec{N: ks.n} }

// kernelJob is one point of the kernel canonical order: a programming
// model on a system. Its key tags name its fields in the point's cache
// key (resultcache.KeyBuilder.Struct).
type kernelJob struct {
	Variant jacobi.Variant `key:"variant"`
	System  kernelSystem
}

// kernelSystem is the system a kernel point runs on: the only input of
// the core.Config its simulator receives (config), so syncbench, which
// has no variant beyond its barrier kind, keys on it alone.
type kernelSystem struct {
	Policy  cache.Policy `key:"policy"`
	CacheKB int          `key:"cache_kb"`
	Cores   int          `key:"cores"`
}

// config builds the point's system configuration.
func (s kernelSystem) config() core.Config {
	return core.DefaultConfig(s.Cores, s.CacheKB, s.Policy)
}

// jobs lists the sweep in canonical order: variants outermost, then
// policy, cache, cores.
func (ks kernelSweep) jobs() []kernelJob {
	jobs := make([]kernelJob, 0, len(ks.variants)*len(ks.policies)*len(ks.cachesKB)*len(ks.cores))
	for _, v := range ks.variants {
		for _, pol := range ks.policies {
			for _, kb := range ks.cachesKB {
				for _, c := range ks.cores {
					jobs = append(jobs, kernelJob{Variant: v, System: kernelSystem{Policy: pol, CacheKB: kb, Cores: c}})
				}
			}
		}
	}
	return jobs
}

// kernelPoints expands kernel kind k's sweep in canonical order. Speedup
// is left zero: it is a cross-point figure, attached over the whole run by
// RunCtx and over the reassembled run by MergeShards.
func kernelPoints(s *Scenario, k WorkloadKind) ([]point, error) {
	ks, err := s.Kernel.sweep()
	if err != nil {
		return nil, err
	}
	rec, wave := tie.SendRecorder(nil), s.Waveform
	if s.Record != nil { // a nil *trace.Trace in the interface is not nil
		rec = s.Record
	}
	jobs := ks.jobs()
	ps := make([]point, len(jobs))
	for i, j := range jobs {
		ps[i] = func(ctx context.Context, rc *resultcache.Cache) (Result, error) {
			return runKernelPoint(ctx, rc, rec, wave, k, ks, j)
		}
	}
	return ps, nil
}

// runKernelPoint simulates (or recalls from the cache) one point and
// returns its row. Every kind keeps the kernel counters, which only the
// K-1 and detail figure formats print for jacobi rows; only jacobi rows
// carry the area, which Figs 7 and 9 print. A non-nil wave receives a
// jacobi point's NoC waveform.
func runKernelPoint(ctx context.Context, rc *resultcache.Cache, rec tie.SendRecorder, wave io.Writer, k WorkloadKind, ks kernelSweep, j kernelJob) (Result, error) {
	sys := j.System
	cfg := sys.config()
	cfg.Record = rec
	r := Result{
		Workload: k.String(),
		Variant:  j.Variant.String(),
		Cores:    sys.Cores,
		CacheKB:  sys.CacheKB,
		Policy:   sys.Policy.String(),
	}
	switch k {
	case WorkloadJacobi:
		spec := ks.jacobiSpec()
		res, err := resultcache.Fetch(rc, jacobiPointKey(spec, j), func() (jacobi.Result, error) {
			var opts []jacobi.RunOption
			if wave != nil {
				opts = append(opts, jacobi.WithSystemHook(func(sys *core.System) error {
					tr, err := noc.NewVCDTracer(sys.Net, wave)
					if err == nil {
						tr.Attach(sys.Engine)
					}
					return err
				}))
			}
			return jacobi.RunCtx(ctx, cfg, spec, j.Variant, opts...)
		})
		r.CyclesPerIter, r.MissRate, r.MPMMUBusy, r.NoCFlits = res.CyclesPerIteration, res.MissRate, res.MPMMUBusy, res.NoCFlits
		r.TotalCycles, r.MeanLatency, r.Deflections = res.TotalCycles, res.AvgFlitLatency, res.Deflections
		r.AreaMM2 = paperArea.area(sys.Cores, sys.CacheKB)
		return r, err
	case WorkloadMatmul:
		spec := ks.matmulSpec()
		res, err := resultcache.Fetch(rc, matmulPointKey(spec, j), func() (matmul.Result, error) {
			return matmul.RunCtx(ctx, cfg, spec, j.Variant)
		})
		r.TotalCycles, r.TransferCycles, r.MPMMUBusy, r.NoCFlits = res.TotalCycles, res.TransferCycles, res.MPMMUBusy, res.NoCFlits
		return r, err
	case WorkloadSyncbench:
		kind := barrierKind(j.Variant)
		res, err := resultcache.Fetch(rc, syncbenchPointKey(kind, ks.rounds, sys), func() (syncbench.Result, error) {
			return syncbench.MeasureWithCtx(ctx, kind, cfg, ks.rounds)
		})
		r.CyclesPerRound, r.MPMMUBusy, r.NoCFlits = res.CyclesPerRound, res.MPMMUBusy, res.NoCFlits
		return r, err
	}
	return r, fmt.Errorf("scenario: %v is not a kernel workload", k)
}

// barrierKind is the barrier a syncbench point measures: the lock
// barrier under pure shared memory, the message barrier otherwise.
func barrierKind(v jacobi.Variant) syncbench.Kind {
	if v == jacobi.PureSM {
		return syncbench.LockBarrier
	}
	return syncbench.MessageBarrier
}

// jacobiPointKey, matmulPointKey and syncbenchPointKey derive the content
// address of one kernel point from what its simulator receives: the
// kernel's spec and the job, or for syncbench the barrier kind, the
// episode count and the system.
func jacobiPointKey(spec jacobi.Spec, j kernelJob) resultcache.Key {
	return resultcache.NewKey("dse/jacobi").Struct(spec).Struct(j).Sum()
}

func matmulPointKey(spec matmul.Spec, j kernelJob) resultcache.Key {
	return resultcache.NewKey("dse/matmul").Struct(spec).Struct(j).Sum()
}

func syncbenchPointKey(kind syncbench.Kind, rounds int, sys kernelSystem) resultcache.Key {
	return resultcache.NewKey("dse/syncbench").
		Str("kind", kind.String()).
		Int("rounds", int64(rounds)).
		Struct(sys).
		Sum()
}

// Chip-area model for a TSMC 65 nm implementation, calibrated to the
// paper's Figure 7/9 axes: the per-node overhead for NoC switch, bridges
// and routing is 100% of the core logic area (excluding caches), the rule
// the paper takes from [20]. The MPMMU counts as one more node with its
// own cache. Constants are chosen so the 168 sweep configurations span
// roughly 1.5-22 mm², matching the figures' x-ranges.
const (
	// coreLogicMM2 is the logic area of one Xtensa-class core.
	coreLogicMM2 = 0.35
	// nocOverhead is the switch+bridge+routing overhead as a fraction of
	// core logic area.
	nocOverhead = 1.0
	// cacheMM2PerKB is the SRAM area per kilobyte of cache.
	cacheMM2PerKB = 0.02
)

// areaModel is the chip-area model's four terms: the logic of one node,
// its network overhead, the SRAM per kilobyte, and the MPMMU's cache in
// kilobytes.
type areaModel struct {
	coreLogicMM2, nocOverhead, cacheMM2PerKB, mmuCacheKB float64
}

// paperArea is the model every rendered area uses. The MPMMU cache is the
// one every kernel point runs with (core.DefaultMPMMUCacheKB).
var paperArea = areaModel{coreLogicMM2, nocOverhead, cacheMM2PerKB, core.DefaultMPMMUCacheKB}

// area estimates the chip area in mm² of a configuration with the given
// number of compute cores and per-core L1 capacity. Every product is
// rounded by an explicit float64 conversion, which the Go spec forbids
// fusing into a multiply-add (even across statements): the area reaches
// rendered rows, so it must not depend on GOARCH.
func (m areaModel) area(computeCores, cacheKB int) float64 {
	nodeLogic := float64(m.coreLogicMM2 * (1 + m.nocOverhead))
	compute := float64(float64(computeCores) * (nodeLogic + float64(float64(cacheKB)*m.cacheMM2PerKB)))
	mmu := nodeLogic + float64(m.mmuCacheKB*m.cacheMM2PerKB)
	return compute + mmu
}

// WaveformCtx runs a one-point jacobi scenario with the NoC activity
// waveform of its simulation (VCD; see noc.VCDTracer) written to w, and
// returns the run's results, byte-identical to a run without it. Like a
// recording, the run bypasses the result cache (runPoints): a hit would
// skip the simulation and write no waveform.
func WaveformCtx(ctx context.Context, s *Scenario, w io.Writer) ([]Result, error) {
	if kinds, err := s.workloadKinds(); err != nil || !slices.Equal(kinds, jacobiOnly) || s.NumPoints() != 1 {
		return nil, fmt.Errorf("scenario: a waveform needs a single-point jacobi scenario, got %s", Summary(s))
	}
	run := *s
	run.Waveform = w
	return RunCtx(ctx, &run)
}

// kernelCycles returns a kernel row's headline metric: cycles per
// iteration for jacobi, total barrier-to-barrier cycles for matmul,
// cycles per synchronization episode for syncbench. ok is false for a
// row of a bare-network workload.
func kernelCycles(r *Result) (cycles int64, ok bool) {
	switch workloadOfRow(*r) {
	case WorkloadJacobi:
		return r.CyclesPerIter, true
	case WorkloadMatmul:
		return r.TotalCycles, true
	case WorkloadSyncbench:
		return r.CyclesPerRound, true
	}
	return 0, false
}

// attachSpeedup fills every kernel row's Speedup relative to the
// smallest-area configuration of its series, the rows of one workload and
// variant ("starting from the architecture with the smallest area", as
// the paper's pruning does); equal areas break toward the slower point. A
// series spans every policy, so write-through points share the write-back
// baseline and speedups are comparable across policies. RunCtx and
// MergeShards both attach through it, so a merged run's figures are the
// single-process run's bit for bit.
func attachSpeedup(results []Result) {
	type series struct{ workload, variant string }
	type baseline struct {
		area   float64
		cycles int64
	}
	base := map[series]baseline{}
	for i := range results {
		r := &results[i]
		cycles, ok := kernelCycles(r)
		if !ok {
			continue
		}
		key, a := series{r.Workload, r.Variant}, paperArea.area(r.Cores, r.CacheKB)
		if b, seen := base[key]; !seen || a < b.area || (a == b.area && cycles > b.cycles) {
			base[key] = baseline{a, cycles}
		}
	}
	for i := range results {
		r := &results[i]
		if cycles, ok := kernelCycles(r); ok {
			r.Speedup = float64(base[series{r.Workload, r.Variant}].cycles) / float64(cycles)
		}
	}
}
