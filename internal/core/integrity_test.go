package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/syncbench"
)

// TestReassemblyFaultFailsEveryKernel plants one TIE overflow before a
// run: System.RunCtx must fail each of the three kernels that completed
// otherwise, so none reports the cycles of a corrupted exchange.
func TestReassemblyFaultFailsEveryKernel(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig(2, 4, cache.WriteBack)
	plant := func(sys *core.System) error {
		sys.Procs[0].Port.Stats.Overflows.Inc()
		return nil
	}
	onFaultySystem := func(run func(*core.System) error) error {
		sys, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plant(sys)
		return run(sys)
	}
	for name, run := range map[string]func() error{
		"jacobi": func() error {
			_, err := jacobi.RunCtx(ctx, cfg, jacobi.Spec{N: 8, Measured: 1}, jacobi.HybridFull, jacobi.WithSystemHook(plant))
			return err
		},
		"matmul": func() error {
			return onFaultySystem(func(sys *core.System) error {
				_, err := matmul.RunOn(ctx, sys, matmul.Spec{N: 4}, jacobi.HybridFull)
				return err
			})
		},
		"syncbench": func() error {
			return onFaultySystem(func(sys *core.System) error {
				_, err := syncbench.MeasureOn(ctx, syncbench.MessageBarrier, sys, 2)
				return err
			})
		},
	} {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "core: 1 message reassembly faults") {
			t.Errorf("%s: err = %v, want the planted reassembly fault", name, err)
		}
	}
}
