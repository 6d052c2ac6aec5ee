package main

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/syncbench"
)

// The correctness checks behind `failed` and `correct`. Simulated
// statistics are not compared with committed goldens (a later model fix
// must stay shippable); instead a run checks itself: every pass must
// reproduce the warm-up pass's Merkle root, each workload's reference
// points measured directly through the layer's own entry point must
// agree with the rows the scenario path produced, served bytes must equal
// a direct render, and a workload must still stress the layer it exists
// for. A workload that stopped doing that is a broken benchmark, and the
// run exits non-zero.

// minIdleSkipped is the share of noc-idle's cycles that must be
// fast-forwarded over; sizing measured 0.89 (wormhole) to 0.95
// (deflection) at rate 0.001.
const minIdleSkipped = 0.85

func findRow(rows []scenario.Result, want func(scenario.Result) bool) (scenario.Result, error) {
	for _, r := range rows {
		if want(r) {
			return r, nil
		}
	}
	return scenario.Result{}, fmt.Errorf("no scenario row for the reference point")
}

// nocRefs measures every (router, pattern, rate) reference point on the
// 4x4 torus with one direct noc.MeasureCtx each (two at a time, like the
// sweep itself), and checks it against the scenario's row for the same
// point on Delivered.
func nocRefs(ctx context.Context, rows []scenario.Result, routerNames, patterns []string, rates []float64, warmup, measure, seed int64) (ticked, skipped int64, err error) {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		return 0, 0, err
	}
	type point struct {
		router, pattern string
		rate            float64
		m               noc.Measurement
	}
	var points []point
	for _, rn := range routerNames {
		for _, pn := range patterns {
			for _, rate := range rates {
				points = append(points, point{router: rn, pattern: pn, rate: rate})
			}
		}
	}
	err = par.ForEachCtx(ctx, len(points), 2, func(i int) error {
		p := &points[i]
		router, err := noc.ParseRouter(p.router)
		if err != nil {
			return err
		}
		pattern, err := noc.ParsePattern(p.pattern)
		if err != nil {
			return err
		}
		p.m, err = noc.MeasureCtx(ctx, topo, noc.MeasureConfig{
			Router:  router,
			Traffic: noc.TrafficConfig{Pattern: pattern, Rate: p.rate},
			Warmup:  warmup, Measure: measure, Seed: seed,
		})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, p := range points {
		row, err := findRow(rows, func(r scenario.Result) bool {
			return r.Topology == "torus" && r.Router == p.router && r.Pattern == p.pattern && r.Rate == p.rate
		})
		if err != nil {
			return 0, 0, fmt.Errorf("%s/%s/%g: %w", p.router, p.pattern, p.rate, err)
		}
		if row.Delivered != p.m.Delivered {
			return 0, 0, fmt.Errorf("%s/%s/%g: scenario row delivered %d flits, direct noc.MeasureCtx %d", p.router, p.pattern, p.rate, row.Delivered, p.m.Delivered)
		}
		ticked += p.m.Cycles - p.m.CyclesSkipped
		skipped += p.m.CyclesSkipped
	}
	return ticked, skipped, nil
}

func saturatedRefs(in *inputs) func(context.Context, []scenario.Result) (int64, int64, error) {
	return func(ctx context.Context, rows []scenario.Result) (int64, int64, error) {
		ticked, skipped, err := nocRefs(ctx, rows, routers, []string{"uniform"}, satRates, in.sz.nocWarmup, in.sz.satMeasure, in.trafficSeed)
		if err == nil && skipped != 0 {
			err = fmt.Errorf("broken benchmark: %d cycles were fast-forwarded on a saturated network, so the workload no longer measures the busy tick", skipped)
		}
		return ticked, skipped, err
	}
}

func idleRefs(in *inputs) func(context.Context, []scenario.Result) (int64, int64, error) {
	return func(ctx context.Context, rows []scenario.Result) (int64, int64, error) {
		ticked, skipped, err := nocRefs(ctx, rows, routers, []string{"uniform"}, in.sz.idleRates, in.sz.nocWarmup, in.sz.idleCycles, in.trafficSeed)
		if share := float64(skipped) / float64(ticked+skipped); err == nil && share <= minIdleSkipped {
			err = fmt.Errorf("broken benchmark: only %.3f of the idle network's cycles were fast-forwarded (need > %.2f), so the workload no longer measures the skip path", share, minIdleSkipped)
		}
		return ticked, skipped, err
	}
}

// kernelRefs runs one point of each kernel directly (the sweep's middle
// core count on the small L1, message passing) and checks the cycle count
// each reports against its scenario row. The simulated length is what the
// kernel itself reports: jacobi the whole run, matmul barrier to barrier,
// syncbench its measured episodes, so ticked is a lower bound for the
// latter two.
func kernelRefs(in *inputs) func(context.Context, []scenario.Result) (int64, int64, error) {
	return func(ctx context.Context, rows []scenario.Result) (ticked, skipped int64, err error) {
		cores := in.sz.kernelCores[len(in.sz.kernelCores)/2]
		cfg := core.DefaultConfig(cores, in.l1[0], cache.WriteBack)
		row := func(kernel string) (scenario.Result, error) {
			r, err := findRow(rows, func(r scenario.Result) bool {
				return r.Workload == kernel && r.Variant == jacobi.HybridFull.String() && r.Cores == cores && r.CacheKB == in.l1[0]
			})
			if err != nil {
				return r, fmt.Errorf("%s: %w", kernel, err)
			}
			return r, nil
		}
		add := func(kernel string, simulated, rowCycles, directCycles, skip int64) error {
			if rowCycles != directCycles {
				return fmt.Errorf("%s on %d cores: scenario row says %d cycles, direct run %d", kernel, cores, rowCycles, directCycles)
			}
			ticked += max(simulated-skip, 0)
			skipped += skip
			return nil
		}

		jr, err := jacobi.RunCtx(ctx, cfg, jacobi.Spec{N: in.sz.kernelN, Warmup: 1, Measured: 1}, jacobi.HybridFull)
		if err != nil {
			return 0, 0, err
		}
		r, err := row("jacobi")
		if err != nil {
			return 0, 0, err
		}
		if err := add("jacobi", jr.TotalCycles, r.CyclesPerIter, jr.CyclesPerIteration, jr.CyclesSkipped); err != nil {
			return 0, 0, err
		}

		mr, err := matmul.RunCtx(ctx, cfg, matmul.Spec{N: in.sz.kernelN}, jacobi.HybridFull)
		if err != nil {
			return 0, 0, err
		}
		if r, err = row("matmul"); err != nil {
			return 0, 0, err
		}
		if err := add("matmul", mr.TotalCycles, r.TotalCycles, mr.TotalCycles, mr.CyclesSkipped); err != nil {
			return 0, 0, err
		}

		sr, err := syncbench.MeasureWithCtx(ctx, syncbench.MessageBarrier, cfg, in.sz.syncRounds)
		if err != nil {
			return 0, 0, err
		}
		if r, err = row("syncbench"); err != nil {
			return 0, 0, err
		}
		if err := add("syncbench", sr.CyclesPerRound*int64(sr.Rounds), r.CyclesPerRound, sr.CyclesPerRound, sr.CyclesSkipped); err != nil {
			return 0, 0, err
		}
		return ticked, skipped, nil
	}
}
