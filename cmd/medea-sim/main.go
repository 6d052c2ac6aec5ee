// Command medea-sim runs one MEDEA configuration of the parallel Jacobi
// workload and prints the paper's headline metric (cycles per iteration
// after warm-up) together with network, cache and memory-node statistics.
//
// Example:
//
//	medea-sim -cores 8 -cache 16 -policy wb -n 60 -variant hybrid-full
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-sim: ")

	cores := flag.Int("cores", 4, "number of compute cores (2..15)")
	cacheKB := flag.Int("cache", 16, "L1 cache size in kB (2,4,8,16,32,64)")
	policy := flag.String("policy", "wb", "cache write policy: wb or wt")
	n := flag.Int("n", 60, "Jacobi grid edge (paper: 16, 30, 60)")
	variant := flag.String("variant", "hybrid-full", "hybrid-full | hybrid-sync | pure-sm")
	warmup := flag.Int("warmup", 1, "warm-up iterations")
	measured := flag.Int("measured", 1, "measured iterations")
	arbiter := flag.String("arbiter", "mux", "NoC arbiter: mux | single-fifo | dual-fifo")
	vcdPath := flag.String("vcd", "", "write a NoC activity waveform (VCD) to this file")
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	v, err := parseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	arb, err := parseArbiter(*arbiter)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig(*cores, *cacheKB, pol)
	cfg.Arbiter = arb
	spec := jacobi.Spec{N: *n, Warmup: *warmup, Measured: *measured}

	var opts []jacobi.RunOption
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		opts = append(opts, jacobi.WithSystemHook(func(sys *core.System) error {
			tr, err := noc.NewVCDTracer(sys.Net, f)
			if err != nil {
				return err
			}
			tr.Attach(sys.Engine)
			return nil
		}))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := jacobi.RunCtx(ctx, cfg, spec, v, opts...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MEDEA %dx%d folded torus, %d compute cores + MPMMU\n",
		cfg.TorusW, cfg.TorusH, *cores)
	fmt.Printf("L1: %d kB %v, arbiter: %v\n", *cacheKB, pol, arb)
	fmt.Printf("workload: %dx%d Jacobi, %v, %d warm-up + %d measured iterations\n",
		*n, *n, v, *warmup, *measured)
	fmt.Printf("verified against the sequential reference: OK\n\n")
	fmt.Printf("cycles/iteration (after warm-up): %d\n", res.CyclesPerIteration)
	fmt.Printf("total cycles:                     %d\n", res.TotalCycles)
	fmt.Printf("mean L1 miss rate:                %.2f%%\n", 100*res.MissRate)
	fmt.Printf("NoC flits delivered:              %d\n", res.NoCFlits)
	fmt.Printf("mean flit latency:                %.1f cycles\n", res.AvgFlitLatency)
	fmt.Printf("deflections:                      %d\n", res.Deflections)
	fmt.Printf("MPMMU busy cycles:                %d\n", res.MPMMUBusy)
	os.Exit(0)
}

func parsePolicy(s string) (cache.Policy, error) {
	switch s {
	case "wb", "WB":
		return cache.WriteBack, nil
	case "wt", "WT":
		return cache.WriteThrough, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want wb or wt)", s)
}

// parseVariant delegates to the shared axis vocabulary in
// internal/jacobi, so every binary accepts the same spellings.
func parseVariant(s string) (jacobi.Variant, error) {
	return jacobi.ParseVariant(s)
}
