package scenario

// Sweep sharding: the scenario side of internal/shard. A sweep's points
// are a pure function of (config, seed, CodeVersion), so a sweep can be
// partitioned across worker processes and reassembled with zero tolerance
// for drift: ShardPoints fixes a canonical-order partition that is stable
// for a given shard count, RunShardCtx executes one shard's points through
// the exact per-point paths a single-process run uses, and MergeShards
// reassembles the canonical order and reattaches the one cross-point
// figure (kernel Speedup) with RunCtx's own attachSpeedup — so a
// merged run is byte-identical, Merkle-root-equal, to an unsharded one.

import (
	"context"
	"fmt"
)

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
// ShardPoints subset of the canonical point list, through the same runner
// RunCtx uses (result cache included), returning one Row per point. Kernel
// Speedup is left zero — it is a cross-point figure MergeShards
// recomputes over the full reassembled series.
func RunShardCtx(ctx context.Context, s *Scenario, shard, shards int) ([]Row, error) {
	if shards < 1 {
		return nil, fmt.Errorf("scenario: shards must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("scenario: shard %d outside [0, %d)", shard, shards)
	}
	ps, err := s.points()
	if err != nil {
		return nil, err
	}
	sel := ShardPoints(shard, shards, len(ps))
	if len(sel) == 0 { // a nil selection would run every point
		return []Row{}, nil
	}
	results, err := runPoints(ctx, s, ps, sel)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(sel))
	for i, r := range results {
		rows[i] = Row{Index: sel[i], Result: r}
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
	ps, err := s.points()
	if err != nil {
		return nil, err
	}
	total := len(ps)
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
	attachSpeedup(results)
	return results, nil
}
