package pe_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/pe"
	"repro/internal/syncbench"
)

// TestRunAheadDifferential is the oracle for local retirement. At bound 1
// every locally retired operation hands back to the core before the next
// one runs — one operation per fetch, the interleaving of a core that
// retires nothing locally — and at the default bound a program runs
// thousands of cycles ahead. Both must produce the same verified result in
// the same cycles, and leave the same counters in every core, L1 and
// memory node and on the network: every kernel, every programming model
// or mechanism, both L1 policies, all three arbiter modes.
func TestRunAheadDifferential(t *testing.T) {
	type run func(cfg core.Config) (result any, c coretest.Counters, err error)
	type kernel struct {
		name string
		run  run
	}
	var kernels []kernel
	add := func(name string, r run) { kernels = append(kernels, kernel{name, r}) }
	for _, v := range jacobi.AllVariants() {
		add(fmt.Sprintf("jacobi/%v", v), func(cfg core.Config) (any, coretest.Counters, error) {
			cfg.NumCompute = 6
			var sys *core.System
			res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 16, Warmup: 1, Measured: 1}, v,
				jacobi.WithSystemHook(func(s *core.System) error { sys = s; return nil }))
			if err != nil {
				return nil, coretest.Counters{}, err
			}
			res.CyclesSkipped = 0
			return res, coretest.CountersOf(sys), nil
		})
		add(fmt.Sprintf("matmul/%v", v), func(cfg core.Config) (any, coretest.Counters, error) {
			cfg.NumCompute = 5
			sys, err := core.Build(cfg)
			if err != nil {
				return nil, coretest.Counters{}, err
			}
			res, err := matmul.RunOn(context.Background(), sys, matmul.Spec{N: 12}, v)
			res.CyclesSkipped = 0
			return res, coretest.CountersOf(sys), err
		})
	}
	for _, k := range []syncbench.Kind{syncbench.MessageBarrier, syncbench.LockBarrier, syncbench.FlagSignal} {
		add(fmt.Sprintf("syncbench/%v", k), func(cfg core.Config) (any, coretest.Counters, error) {
			cfg.NumCompute = 4
			sys, err := core.Build(cfg)
			if err != nil {
				return nil, coretest.Counters{}, err
			}
			res, err := syncbench.MeasureOn(context.Background(), k, sys, 8)
			res.CyclesSkipped = 0
			return res, coretest.CountersOf(sys), err
		})
	}

	for _, k := range kernels {
		for _, policy := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
			for _, arb := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
				t.Run(fmt.Sprintf("%s/%v/%v", k.name, policy, arb), func(t *testing.T) {
					cfg := core.DefaultConfig(0, 2, policy)
					cfg.Arbiter = arb
					wantRes, want, err := k.run(cfg)
					if err != nil {
						t.Fatalf("default bound: %v", err)
					}
					pe.SetMaxAhead(t, 1)
					gotRes, got, err := k.run(cfg)
					if err != nil {
						t.Fatalf("bound 1: %v", err)
					}
					if !reflect.DeepEqual(gotRes, wantRes) {
						t.Errorf("results diverge:\n  bound 1: %+v\n  default: %+v", gotRes, wantRes)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("counters diverge:\n  bound 1: %+v\n  default: %+v", got, want)
					}
				})
			}
		}
	}
}
