package dse

import (
	"context"

	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/par"
)

// CompareRow holds the three programming-model variants evaluated on one
// configuration, reproducing the paper's hybrid vs shared-memory analysis.
type CompareRow struct {
	Compute int
	CacheKB int

	HybridFull int64 // cycles/iteration, data + sync over messages
	HybridSync int64 // cycles/iteration, data over shared memory, sync over messages
	PureSM     int64 // cycles/iteration, pure shared memory

	MissRate float64 // hybrid-full L1 miss rate (locates the cache knee)

	// FullVsSM is the headline ratio: pure shared memory time over
	// hybrid-full time (the paper reports 2x below the cache knee growing
	// to >5x at 10 cores / 16 kB).
	FullVsSM float64
	// SyncVsSM isolates the synchronization benefit: pure-SM time over
	// hybrid-sync time.
	SyncVsSM float64
	// FullVsSync isolates the data-exchange benefit: hybrid-sync time
	// over hybrid-full time.
	FullVsSync float64
}

// CompareCtx runs all three variants for every core count at a fixed
// cache size and returns one row per configuration, on the same bounded
// worker pool as the sweeps (see SweepCtx for the error shape).
func CompareCtx(ctx context.Context, n int, cores []int, cacheKB, warmup, measured int) ([]CompareRow, error) {
	return par.Sweep(ctx, cores, nil, DefaultParallelism(), func(ctx context.Context, c int) (CompareRow, error) {
		return compareOne(ctx, n, c, cacheKB, warmup, measured)
	})
}

func compareOne(ctx context.Context, n, cores, cacheKB, warmup, measured int) (CompareRow, error) {
	spec := jacobi.Spec{N: n, Warmup: warmup, Measured: measured}
	row := CompareRow{Compute: cores, CacheKB: cacheKB}
	for _, v := range []jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM} {
		cfg := core.DefaultConfig(cores, cacheKB, 0)
		res, err := jacobi.RunCtx(ctx, cfg, spec, v)
		if err != nil {
			return row, err
		}
		switch v {
		case jacobi.HybridFull:
			row.HybridFull = res.CyclesPerIteration
			row.MissRate = res.MissRate
		case jacobi.HybridSync:
			row.HybridSync = res.CyclesPerIteration
		case jacobi.PureSM:
			row.PureSM = res.CyclesPerIteration
		}
	}
	row.FullVsSM = float64(row.PureSM) / float64(row.HybridFull)
	row.SyncVsSM = float64(row.PureSM) / float64(row.HybridSync)
	row.FullVsSync = float64(row.HybridSync) / float64(row.HybridFull)
	return row, nil
}
