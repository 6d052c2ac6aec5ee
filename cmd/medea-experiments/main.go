// Command medea-experiments regenerates the tables and figures of the
// paper's evaluation (Figures 6-9 plus the hybrid-vs-shared-memory prose
// analysis) and the beyond-paper kernel experiments. Absolute cycle
// counts differ from the authors' Xtensa testbed; the shapes — who wins,
// by what factor, where the knees fall — are the reproduction targets
// (see DESIGN.md's experiment index and REPRODUCING.md for the full
// figure/table -> command map).
//
// Every experiment runs through the same execution paths as the
// declarative scenario runner (dse.SweepCtx, dse.KernelSweepCtx), so the
// hand-coded tables here and the JSON scenarios under examples/scenarios/
// cannot drift apart.
//
// Examples:
//
//	medea-experiments -fig all -full
//	medea-experiments -fig kernel -workloads jacobi,matmul -variants hybrid-full,pure-sm
//	medea-experiments -fig 8 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-experiments: ")
	// Ctrl-C / SIGTERM cancel the sweeps cooperatively: dispatch stops,
	// in-flight simulations abort within a few thousand simulated cycles,
	// and the process exits promptly (profiles still flush via the defers
	// inside run).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		var canceled *par.CanceledError
		if errors.As(err, &canceled) {
			log.Fatalf("interrupted: %d of %d points had completed; partial results discarded", canceled.Done, canceled.Total)
		}
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
}

// run executes the CLI against args, writing tables to stdout. Errors
// propagate back here instead of os.Exit-ing in place so the profile
// defers still flush (a profile of a failing run is exactly the one worth
// keeping). main wires Ctrl-C into ctx.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medea-experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which experiment: 6 | 7 | 8 | 9 | hybrid | sync | barrier | kernel | all")
	full := fs.Bool("full", false, "run the paper's full parameter grid (slower)")
	workloads := fs.String("workloads", "", "-fig kernel only: comma-separated kernels to sweep (default all; see -fig kernel)")
	variants := fs.String("variants", "", "-fig kernel only: comma-separated programming models (default hybrid-full,pure-sm)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	parallelism := fs.Int("parallelism", 0, "max concurrent simulations per process (0 = GOMAXPROCS); with -shards, shards x parallelism simulations run fleet-wide")
	shards := fs.Int("shards", 0, "figs 6|7|8|9: split the sweep into this many shards run by worker processes and merge (0 = single-process; output is byte-identical either way)")
	workers := fs.Int("workers", 0, "max concurrently running shard workers (0 = one per shard)")
	workerCmd := fs.String("worker-cmd", "", "worker command for sharded runs, space-separated (default: this binary re-exec'd with -worker)")
	workerMode := fs.Bool("worker", false, "serve the shard worker protocol on stdin/stdout (started by a coordinator, not by hand)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: medea-experiments [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Regenerates the paper's figures and the beyond-paper kernel ablation\n")
		fmt.Fprintf(fs.Output(), "(REPRODUCING.md maps every figure/table to its invocation).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -help: usage already printed, exit clean
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if (*workloads != "" || *variants != "") && *fig != "kernel" {
		return fmt.Errorf("-workloads/-variants only apply to -fig kernel (got -fig %s)", *fig)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-parallelism", *parallelism}, {"-shards", *shards}, {"-workers", *workers}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	// The sharding flags without -shards would silently run single-process.
	for _, f := range []struct {
		name string
		set  bool
	}{{"-workers", *workers != 0}, {"-worker-cmd", *workerCmd != ""}} {
		if f.set && *shards == 0 {
			return fmt.Errorf("%s only applies to a sharded run: add -shards N", f.name)
		}
	}
	if *workerMode {
		return shard.ServeWorker(ctx, os.Stdin, stdout, nil)
	}
	if *shards > 0 {
		switch *fig {
		case "6", "7", "8", "9":
		default:
			return fmt.Errorf("-shards only applies to the sweep figures (-fig 6|7|8|9), got -fig %s", *fig)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}

	fid := dse.Quick
	if *full {
		fid = dse.Full
	}

	// figPoints runs a figure's sweep grid: single-process through
	// dse.SweepCtx (the exact Fig6Ctx/Fig8Ctx path), or sharded across
	// worker processes — the merged rows are byte-identical, so the
	// rendered figures are too.
	figPoints := func(name string, o dse.Options) ([]dse.Point, error) {
		o.Parallelism = *parallelism
		if *shards == 0 {
			return dse.SweepCtx(ctx, o)
		}
		return runShardedSweep(ctx, name, o, *shards, *workers, *workerCmd)
	}

	switch *fig {
	case "6":
		pts, err := figPoints("fig6", dse.Fig6Options(fid))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.Fig6Table(pts, dse.Fig6Title))
	case "7":
		pts, err := figPoints("fig7", dse.Fig6Options(fid))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.Fig7(pts))
	case "8":
		pts, err := figPoints("fig8", dse.Fig8Options(fid))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.Fig6Table(pts, dse.Fig8Title))
	case "9":
		pts, err := figPoints("fig9", dse.Fig8Options(fid))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.Fig9(pts))
	case "hybrid":
		t, _, err := dse.HybridComparisonCtx(ctx, fid, *parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
	case "sync":
		t, _, err := dse.SmallCacheComparisonCtx(ctx, fid, *parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
	case "barrier":
		// S-1: the synchronization primitives in isolation — the kernel
		// ablation restricted to the syncbench kernel, one execution path
		// with -fig kernel and the kernel-ablation scenario.
		o := dse.DefaultKernelAblationOptions()
		o.Parallelism = *parallelism
		o.Kernels = []dse.Kernel{dse.KernelSyncbench}
		if fid == dse.Quick {
			o.Cores = []int{2, 4, 8}
		} else {
			o.Cores = []int{2, 4, 6, 8, 10, 12, 15}
		}
		points, err := dse.KernelAblationCtx(ctx, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.KernelAblationTable(o, points))
	case "kernel":
		// K-1: per-kernel speedup vs cores in both programming models.
		o := dse.DefaultKernelAblationOptions()
		o.Parallelism = *parallelism
		if fid == dse.Full {
			o.Cores = dse.PaperCores()
		}
		kernels, err := parseKernels(*workloads)
		if err != nil {
			return err
		}
		if kernels != nil {
			o.Kernels = kernels
		}
		vars, err := parseVariants(*variants)
		if err != nil {
			return err
		}
		if vars != nil {
			o.Variants = vars
		}
		points, err := dse.KernelAblationCtx(ctx, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dse.KernelAblationTable(o, points))
	case "all":
		t, err := dse.AllExperimentsCtx(ctx, fid, *parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
	default:
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	return nil
}

// sweepScenario expresses a figure's dse.Options as the equivalent
// declarative scenario, the unit the shard coordinator distributes. The
// two run the same execution path (scenario kernel workloads delegate to
// dse.SweepCtx), so the round-trip is byte-exact — the golden tests
// already hold the scenario and dse paths in lockstep.
func sweepScenario(name string, o dse.Options) (*scenario.Scenario, error) {
	pols := make([]string, len(o.Policies))
	for i, p := range o.Policies {
		pols[i] = p.String()
	}
	s := &scenario.Scenario{
		Name:     name,
		Workload: "jacobi",
		Kernel: &scenario.KernelConfig{
			N:        o.N,
			Variant:  o.Variant.String(),
			Cores:    o.Cores,
			CacheKB:  o.CachesKB,
			Policies: pols,
			Warmup:   o.Warmup,
			Measured: o.Measured,
		},
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sharded sweep: %w", err)
	}
	return s, nil
}

// runShardedSweep distributes one figure sweep across worker processes
// and returns the merged points in canonical order; each worker runs
// o.Parallelism simulations at a time.
func runShardedSweep(ctx context.Context, name string, o dse.Options, shards, workers int, workerCmd string) ([]dse.Point, error) {
	s, err := sweepScenario(name, o)
	if err != nil {
		return nil, err
	}
	var argv []string
	if workerCmd != "" {
		argv = strings.Fields(workerCmd)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = []string{exe, "-worker"}
	}
	co := &shard.Coordinator{
		NewWorker:   shard.ProcFactory(shard.ProcSpec{Command: argv}),
		Shards:      shards,
		Workers:     workers,
		Parallelism: o.Parallelism,
		Logf:        log.Printf,
	}
	results, _, err := co.Run(ctx, s)
	if err != nil {
		return nil, err
	}
	log.Printf("%s: merged %d shards; merkle root %s", name, shards, scenario.MerkleRoot(results))
	return scenario.DSEPoints(results), nil
}

// parseList resolves a comma-separated axis filter through the axis's
// canonical parser, rejecting duplicates; an empty flag keeps the
// experiment's default (nil).
func parseList[T comparable](flagName, s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	seen := map[T]bool{}
	for _, name := range strings.Split(s, ",") {
		v, err := parse(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("%s: %v listed twice", flagName, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// parseKernels resolves the -workloads filter; empty means every kernel.
func parseKernels(s string) ([]dse.Kernel, error) {
	return parseList("-workloads", s, dse.ParseKernel)
}

// parseVariants resolves the -variants filter; empty keeps the default
// hybrid-full vs pure-sm comparison.
func parseVariants(s string) ([]jacobi.Variant, error) {
	return parseList("-variants", s, jacobi.ParseVariant)
}
