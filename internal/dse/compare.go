package dse

import (
	"repro/internal/cache"
	"repro/internal/jacobi"
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

// CompareRows pairs the hybrid-full, hybrid-sync and pure-sm series of a
// jacobi sweep (HybridComparisonOptions, SmallCacheComparisonOptions) into
// one row per configuration, in the order the configurations first
// appear.
func CompareRows(points []KernelPoint) []CompareRow {
	type config struct {
		cores, kb int
		policy    cache.Policy
	}
	var rows []CompareRow
	at := map[config]int{}
	for _, p := range points {
		c := config{p.Compute, p.CacheKB, p.Policy}
		i, ok := at[c]
		if !ok {
			i = len(rows)
			at[c] = i
			rows = append(rows, CompareRow{Compute: p.Compute, CacheKB: p.CacheKB})
		}
		switch r := &rows[i]; p.Variant {
		case jacobi.HybridFull:
			r.HybridFull = p.Cycles
			r.MissRate = p.MissRate
		case jacobi.HybridSync:
			r.HybridSync = p.Cycles
		case jacobi.PureSM:
			r.PureSM = p.Cycles
		}
	}
	for i := range rows {
		r := &rows[i]
		r.FullVsSM = float64(r.PureSM) / float64(r.HybridFull)
		r.SyncVsSM = float64(r.PureSM) / float64(r.HybridSync)
		r.FullVsSync = float64(r.HybridSync) / float64(r.HybridFull)
	}
	return rows
}
