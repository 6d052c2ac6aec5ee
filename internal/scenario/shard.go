package scenario

// Sweep sharding: the scenario side of internal/shard. A sweep's points
// are a pure function of (config, seed, CodeVersion), so a sweep can be
// partitioned across worker processes and reassembled with zero tolerance
// for drift: ShardPoints fixes a canonical-order partition that is stable
// for a given shard count, RunShardCtx executes one shard's points through
// the exact per-point paths a single-process run uses, and MergeShards
// reassembles the canonical order and reattaches the one cross-point
// figure (kernel Speedup) with the exact single-process algorithm — so a
// merged run is byte-identical, Merkle-root-equal, to an unsharded one.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dse"
)

// ShardConfig is a scenario's optional "shard" section: counts only (how
// workers are launched is the driver's business and never part of the
// declarative format — a scenario file submitted to medea-serve must not
// be able to name a command to exec).
type ShardConfig struct {
	// Shards is the number of partitions to split the sweep into (>= 1).
	Shards int `json:"shards"`
	// Workers caps concurrently running worker processes; 0 means one per
	// shard.
	Workers int `json:"workers,omitempty"`
}

func (c *ShardConfig) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf(`"shard.shards" must be >= 1, got %d`, c.Shards)
	}
	if c.Workers < 0 {
		return fmt.Errorf(`"shard.workers" must be >= 0, got %d`, c.Workers)
	}
	return nil
}

// Row is one sweep point tagged with its canonical-order index, the unit
// a shard worker returns: the index is what lets MergeShards reassemble
// rows from any shard interleaving into the single-process order.
type Row struct {
	Index  int    `json:"index"`
	Result Result `json:"result"`
}

// ShardPoints returns the canonical-order indices shard (of shards) owns:
// round-robin, i % shards == shard. Round-robin spreads expensive regions
// of the grid (large cores x large caches cluster at the end of each
// series) across shards instead of handing one shard the whole hot
// corner. The partition depends only on (shard, shards, total).
func ShardPoints(shard, shards, total int) []int {
	var out []int
	for i := shard; i < total; i += shards {
		out = append(out, i)
	}
	return out
}

// RunShardCtx executes shard (of shards) of the scenario's sweep: the
// ShardPoints subset of the canonical point order, each point through the
// same execution path RunCtx uses (result cache included), returning one
// Row per point. Kernel Speedup is left zero — it is a cross-point figure
// MergeShards recomputes over the full reassembled series.
func RunShardCtx(ctx context.Context, s *Scenario, shard, shards int) ([]Row, error) {
	if shards < 1 {
		return nil, fmt.Errorf("scenario: shards must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("scenario: shard %d outside [0, %d)", shard, shards)
	}
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	total := 0
	for _, k := range kinds {
		total += s.kindPoints(k)
	}
	sel := ShardPoints(shard, shards, total)
	rows := make([]Row, 0, len(sel))
	offset := 0
	for _, k := range kinds {
		n := s.kindPoints(k)
		// This kind's slice of the shard, rebased to kind-local indices.
		var local []int
		for _, g := range sel {
			if g >= offset && g < offset+n {
				local = append(local, g-offset)
			}
		}
		if len(local) > 0 {
			results, err := ForKind(k).Run(ctx, s, local)
			if err != nil {
				return nil, err
			}
			if len(results) != len(local) {
				return nil, fmt.Errorf("scenario: workload %v returned %d results for %d shard points", k, len(results), len(local))
			}
			for i, r := range results {
				rows = append(rows, Row{Index: offset + local[i], Result: r})
			}
		}
		offset += n
	}
	return rows, nil
}

// MergeShards reassembles rows from any number of shards into the
// canonical point order and reattaches the cross-point kernel Speedup,
// producing the exact result slice a single-process RunCtx would have:
// the caller verifies that claim by comparing MerkleRoot of the merged
// slice against the single-process root. Every index must arrive exactly
// once.
func MergeShards(s *Scenario, rows []Row) ([]Result, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	total := 0
	for _, k := range kinds {
		total += s.kindPoints(k)
	}
	results := make([]Result, total)
	seen := make([]bool, total)
	for _, r := range rows {
		if r.Index < 0 || r.Index >= total {
			return nil, fmt.Errorf("scenario: merge: row index %d outside the %d-point sweep", r.Index, total)
		}
		if seen[r.Index] {
			return nil, fmt.Errorf("scenario: merge: point %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		results[r.Index] = r.Result
	}
	if len(rows) != total {
		return nil, fmt.Errorf("scenario: merge: points missing (%d of %d rows delivered)", len(rows), total)
	}
	offset := 0
	for _, k := range kinds {
		n := s.kindPoints(k)
		if k.IsKernel() {
			if err := attachSpeedupSeries(s, k, results[offset:offset+n]); err != nil {
				return nil, err
			}
		}
		offset += n
	}
	return results, nil
}

// attachSpeedupSeries recomputes Speedup over one kernel kind's merged
// block, per (variant) series, with dse.AttachKernelSpeedup — the exact
// baseline choice and float64 division of the single-process path, over
// the exact same inputs, so the reattached figures are bit-identical.
func attachSpeedupSeries(s *Scenario, k WorkloadKind, block []Result) error {
	c := s.kernelConfig()
	variants, err := c.variantList()
	if err != nil {
		return err
	}
	if len(block)%len(variants) != 0 {
		return fmt.Errorf("scenario: merge: %v block of %d rows does not divide into %d variant series", k, len(block), len(variants))
	}
	per := len(block) / len(variants)
	for vi := range variants {
		series := block[vi*per : (vi+1)*per]
		pts := make([]dse.KernelPoint, len(series))
		for i, r := range series {
			pol, err := parsePolicy(r.Policy)
			if err != nil {
				return fmt.Errorf("scenario: merge: %w", err)
			}
			cfg := core.DefaultConfig(r.Cores, r.CacheKB, pol)
			pts[i] = dse.KernelPoint{
				Cycles:  kernelHeadlineCycles(k, r),
				AreaMM2: dse.Area(r.Cores, r.CacheKB, cfg.MPMMUCacheKB),
			}
		}
		dse.AttachKernelSpeedup(pts)
		for i := range series {
			series[i].Speedup = pts[i].Speedup
		}
	}
	return nil
}

// kernelHeadlineCycles returns the metric a kind's Speedup is computed
// over — the same field dse.KernelPoint.Cycles carried before projection
// onto the Result schema.
func kernelHeadlineCycles(k WorkloadKind, r Result) int64 {
	switch k {
	case WorkloadJacobi:
		return r.CyclesPerIter
	case WorkloadMatmul:
		return r.TotalCycles
	case WorkloadSyncbench:
		return r.CyclesPerRound
	}
	return 0
}
