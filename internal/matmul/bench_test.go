package matmul

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// BenchmarkKernelPoint runs the costliest point of bench's kernel-sweep
// workload: matmul, pure shared memory, 12 cores with 2 kB write-back L1s,
// N = 30 — the L1 misses, bridge transactions, MPMMU accesses and
// core-to-program switches the kernel path is made of, with most cycles
// fast-forwarded. ns/ticked-cycle divides the time by the cycles the
// engine ticked rather than jumped over; allocs/op counts what the L1-miss
// path and the engine allocate per point. For the profile:
//
//	go test ./internal/matmul -run '^$' -bench KernelPoint -cpuprofile cpu.out
func BenchmarkKernelPoint(b *testing.B) {
	cfg := core.DefaultConfig(12, 2, cache.WriteBack)
	b.ReportAllocs()
	var ticked int64
	for b.Loop() {
		sys, err := core.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunOn(context.Background(), sys, Spec{N: 30}, PureSM); err != nil {
			b.Fatal(err)
		}
		ticked += sys.Cycles() - sys.Engine.CyclesSkipped()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticked), "ns/ticked-cycle")
}
