package jacobi

import (
	"context"
	"testing"

	"repro/internal/core"
)

// runQuick runs a small grid on write-back caches, default everything.
func runQuick(numCompute, cacheKB int, variant Variant) (Result, error) {
	cfg := core.DefaultConfig(numCompute, cacheKB, 0)
	return RunCtx(context.Background(), cfg, Spec{N: 16, Warmup: 1, Measured: 1}, variant)
}

func TestSmokeHybridFull(t *testing.T) {
	res, err := runQuick(3, 8, HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hybrid-full 16x16 on 3 cores: %d cycles/iter, total %d, missrate %.3f, flits %d",
		res.CyclesPerIteration, res.TotalCycles, res.MissRate, res.NoCFlits)
	if res.CyclesPerIteration <= 0 {
		t.Fatalf("non-positive measured cycles: %d", res.CyclesPerIteration)
	}
}

func TestSmokeHybridSync(t *testing.T) {
	res, err := runQuick(3, 8, HybridSync)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hybrid-sync: %d cycles/iter", res.CyclesPerIteration)
}

func TestSmokePureSM(t *testing.T) {
	res, err := runQuick(3, 8, PureSM)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pure-sm: %d cycles/iter", res.CyclesPerIteration)
}
