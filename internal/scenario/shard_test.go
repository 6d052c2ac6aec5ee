package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestShardPointsPartition: every (shards, total) partition must cover
// each index exactly once, per-shard in increasing order, independent of
// which shard is asked first.
func TestShardPointsPartition(t *testing.T) {
	for _, tc := range []struct{ shards, total int }{
		{1, 5}, {2, 5}, {3, 5}, {5, 5}, {7, 5}, {4, 0}, {3, 17},
	} {
		seen := make(map[int]int)
		for shard := 0; shard < tc.shards; shard++ {
			pts := ShardPoints(shard, tc.shards, tc.total)
			for i := 1; i < len(pts); i++ {
				if pts[i] <= pts[i-1] {
					t.Errorf("ShardPoints(%d,%d,%d) not increasing: %v", shard, tc.shards, tc.total, pts)
				}
			}
			for _, p := range pts {
				seen[p]++
			}
		}
		if len(seen) != tc.total {
			t.Errorf("%d shards over %d points covered %d indices", tc.shards, tc.total, len(seen))
		}
		for p, n := range seen {
			if n != 1 {
				t.Errorf("%d shards over %d points assigned index %d to %d shards", tc.shards, tc.total, p, n)
			}
			if p < 0 || p >= tc.total {
				t.Errorf("%d shards over %d points produced out-of-range index %d", tc.shards, tc.total, p)
			}
		}
	}
}

// kernelShardScenario is a small multi-kernel, multi-variant sweep: it
// exercises the one cross-point figure (Speedup) that MergeShards must
// reattach over the reassembled series.
const kernelShardScenario = `{
	"name": "shard-kernels",
	"workloads": ["jacobi", "matmul"],
	"kernel": {"n": 8, "cores": [2, 4], "cache_kb": [4],
	           "variants": ["hybrid-full", "pure-sm"],
	           "warmup": 1, "measured": 1}
}`

// threeKernelScenario runs every kernel on a two-point grid: blocks of two
// points, so round-robin shards over its six points can sit inside one
// workload's block or straddle two.
const threeKernelScenario = `{
	"name": "shard-three-kernels",
	"workloads": ["jacobi", "matmul", "syncbench"],
	"kernel": {"n": 8, "cores": [2, 4], "cache_kb": [4], "warmup": 1, "measured": 1}
}`

// TestRunShardMergeMatchesRun is the scenario-layer half of the sharding
// golden: RunShardCtx over every shard, merged, must equal RunCtx exactly
// (including reattached Speedup), for every workload shape. The shard
// counts are chosen to cut where the point list is delicate: 2 and 3
// shards split every three-window group of window-sweep across shards; 4
// shards over threeKernelScenario's six points give shards that straddle
// two workload blocks ({0, 4}, {1, 5}) and shards inside one ({2}, {3}),
// and 7 shards leave one shard with no point at all.
func TestRunShardMergeMatchesRun(t *testing.T) {
	parse := func(raw string) func(t *testing.T) *Scenario {
		return func(t *testing.T) *Scenario {
			s, err := Parse([]byte(raw))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	example := func(name string) func(t *testing.T) *Scenario {
		return func(t *testing.T) *Scenario {
			s, err := Load("../../examples/scenarios/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	cases := []struct {
		name   string
		load   func(t *testing.T) *Scenario
		shards []int
		// multiKind asks for at least one shard inside one workload's
		// block and one spanning two, at some shard count.
		multiKind bool
	}{
		{"kernel", parse(kernelShardScenario), []int{1, 3}, false},
		{"noc", example("smoke"), []int{1, 3}, false},
		{"service", example("service-hotspot"), []int{1, 3}, false},
		{"trace", example("trace-replay"), []int{1, 3}, false},
		{"windows", example("window-sweep"), []int{2, 3}, false},
		{"multi-kind", parse(threeKernelScenario), []int{4, 7}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := RunCtx(context.Background(), c.load(t))
			if err != nil {
				t.Fatal(err)
			}
			inside, spanning := false, false
			for _, shards := range c.shards {
				s := c.load(t)
				var rows []Row
				for shard := 0; shard < shards; shard++ {
					part, err := RunShardCtx(context.Background(), s, shard, shards)
					if err != nil {
						t.Fatal(err)
					}
					kinds := map[string]bool{}
					for _, r := range part {
						kinds[r.Result.Workload] = true
					}
					inside = inside || len(kinds) == 1
					spanning = spanning || len(kinds) > 1
					rows = append(rows, part...)
				}
				got, err := MergeShards(s, rows)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d: merged results differ from RunCtx\n got: %+v\nwant: %+v", shards, got, want)
				}
				if gr, wr := MerkleRoot(got), MerkleRoot(want); gr != wr {
					t.Errorf("shards=%d: merged root %s, direct root %s", shards, gr, wr)
				}
			}
			if c.multiKind && !(inside && spanning) {
				t.Errorf("shard counts %v: a shard inside one workload block %v, a shard spanning blocks %v; want both", c.shards, inside, spanning)
			}
		})
	}
}

// TestRunShardCtxValidation: out-of-range shard selectors must fail up
// front, not run the wrong subset.
func TestRunShardCtxValidation(t *testing.T) {
	s, err := Load("../../examples/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardCtx(context.Background(), s, 0, 0); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := RunShardCtx(context.Background(), s, 3, 3); err == nil {
		t.Error("shard==shards accepted")
	}
	if _, err := RunShardCtx(context.Background(), s, -1, 3); err == nil {
		t.Error("negative shard accepted")
	}
}

// TestMergeShardsErrors: the merge must reject duplicate, missing and
// out-of-range rows — silent acceptance would hand back a sweep with
// holes that still renders.
func TestMergeShardsErrors(t *testing.T) {
	s, err := Load("../../examples/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunShardCtx(context.Background(), s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("smoke sweep has %d points, need >= 2", len(rows))
	}

	dup := append([]Row(nil), rows...)
	dup[1] = dup[0]
	if _, err := MergeShards(s, dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate row merge = %v, want a delivered-twice error", err)
	}

	if _, err := MergeShards(s, rows[:len(rows)-1]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("short merge = %v, want a points-missing error", err)
	}

	oob := append([]Row(nil), rows...)
	oob[0].Index = len(rows) + 7
	if _, err := MergeShards(s, oob); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range merge = %v, want an index-range error", err)
	}
}

// TestNumPointsMatchesRun pins the sharding prerequisite: NumPoints must
// agree with the number of results a full run produces, for both kernel
// and noc scenarios — ShardPoints partitions [0, NumPoints).
func TestNumPointsMatchesRun(t *testing.T) {
	for _, raw := range []string{
		kernelShardScenario,
		`{"workload": "noc-synthetic", "noc": {"width": 2, "height": 2, "patterns": ["uniform", "tornado"], "rates": [0.05, 0.1], "measure_cycles": 200}, "seeds": [1, 2]}`,
	} {
		s, err := Parse([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumPoints() != len(results) {
			t.Errorf("NumPoints() = %d but the run produced %d results (%s)", s.NumPoints(), len(results), raw)
		}
	}
}
