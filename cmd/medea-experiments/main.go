// Command medea-experiments regenerates the tables and figures of the
// paper's evaluation (Figures 6-9 plus the hybrid-vs-shared-memory prose
// analysis) and the beyond-paper kernel experiments. Absolute cycle
// counts differ from the authors' Xtensa testbed; the shapes — who wins,
// by what factor, where the knees fall — are the reproduction targets
// (see DESIGN.md's experiment index and REPRODUCING.md for the full
// figure/table -> command map).
//
// The command is a table of figures: each names the dse.KernelOptions
// sweeps behind it at a fidelity and the table it renders from their
// points. Every sweep runs through dse.KernelSweepCtx, the execution path
// of the declarative scenario runner, so the tables here and the JSON
// scenarios under examples/scenarios/ cannot drift apart. A figure grid
// split over worker processes is a jacobi scenario file run by
// medea-scenarios -shards N (or -worker-url).
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
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/par"
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

// figure is one experiment: the sweeps behind it at a fidelity, run one
// after another, and the table it renders from their concatenated points.
type figure struct {
	name   string
	sweeps func(dse.Fidelity) []dse.KernelOptions
	render func([]dse.KernelPoint) string
}

// paperFigures is the paper's evaluation in paper order, what -fig all
// renders. Figs 7 and 9 share the sweeps of Figs 6 and 8.
var paperFigures = []figure{
	{"6", one(dse.Fig6Options), func(p []dse.KernelPoint) string { return dse.Fig6Table(p, dse.Fig6Title) }},
	{"7", one(dse.Fig6Options), dse.Fig7},
	{"8", one(dse.Fig8Options), func(p []dse.KernelPoint) string { return dse.Fig6Table(p, dse.Fig8Title) }},
	{"9", one(dse.Fig8Options), dse.Fig9},
	{"hybrid", one(dse.HybridComparisonOptions), func(p []dse.KernelPoint) string {
		return dse.CompareTable(dse.CompareRows(p), dse.HybridTitle)
	}},
	{"sync", one(dse.SmallCacheComparisonOptions), func(p []dse.KernelPoint) string {
		return dse.CompareTable(dse.CompareRows(p), dse.SmallCacheTitle)
	}},
}

// figures adds the beyond-paper experiments: S-1, the synchronization
// primitives in isolation (the K-1 sweep of syncbench alone), and K-1,
// per-kernel speedup vs cores in both programming models.
var figures = append(paperFigures,
	figure{"barrier", func(f dse.Fidelity) []dse.KernelOptions {
		o := dse.K1Options(dse.KernelSyncbench)
		o.Cores = []int{2, 4, 8}
		if f == dse.Full {
			o.Cores = []int{2, 4, 6, 8, 10, 12, 15}
		}
		return []dse.KernelOptions{o}
	}, kernelTable},
	figure{"kernel", func(f dse.Fidelity) []dse.KernelOptions { return k1(f, dse.AllKernels()) }, kernelTable},
)

// one adapts a single-sweep experiment to the figure table.
func one(sweep func(dse.Fidelity) dse.KernelOptions) func(dse.Fidelity) []dse.KernelOptions {
	return func(f dse.Fidelity) []dse.KernelOptions { return []dse.KernelOptions{sweep(f)} }
}

// k1 returns the K-1 sweeps of the listed kernels, in that order: the
// Quick core range of dse.K1Options, or the paper's at Full.
func k1(f dse.Fidelity, kernels []dse.Kernel) []dse.KernelOptions {
	out := make([]dse.KernelOptions, len(kernels))
	for i, k := range kernels {
		out[i] = dse.K1Options(k)
		if f == dse.Full {
			out[i].Cores = dse.PaperCores()
		}
	}
	return out
}

// kernelTable renders K-1 and S-1; every kernel's K-1 sweep shares the
// problem size and cache size its caption names.
func kernelTable(p []dse.KernelPoint) string {
	return dse.KernelAblationTable(dse.K1Options(dse.KernelJacobi), p)
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
	parallelism := fs.Int("parallelism", 0, "max concurrent simulations (0 = GOMAXPROCS)")
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
	if *parallelism < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", *parallelism)
	}
	fid := dse.Quick
	if *full {
		fid = dse.Full
	}

	figs := paperFigures
	if *fig != "all" {
		figs = nil
		for _, f := range figures {
			if f.name == *fig {
				figs = []figure{f}
			}
		}
		if figs == nil {
			return fmt.Errorf("unknown -fig %q", *fig)
		}
	}
	// Resolve every sweep, with the -fig kernel filters applied, and
	// check it before the first one runs.
	plan := make([][]dse.KernelOptions, len(figs))
	for i, f := range figs {
		plan[i] = f.sweeps(fid)
	}
	if *fig == "kernel" {
		kernels, err := parseList("-workloads", *workloads, dse.ParseKernel)
		if err != nil {
			return err
		}
		if kernels != nil {
			plan[0] = k1(fid, kernels)
		}
		vars, err := parseList("-variants", *variants, jacobi.ParseVariant)
		if err != nil {
			return err
		}
		if vars != nil {
			for i := range plan[0] {
				plan[0][i].Variants = vars
			}
		}
	}
	for _, sweeps := range plan {
		for i := range sweeps {
			sweeps[i].Parallelism = *parallelism
			for _, v := range sweeps[i].Variants {
				if k := sweeps[i].Kernel; !k.Supports(v) {
					return fmt.Errorf("-variants: the %v kernel has no %v variant (use %v or %v)",
						k, v, jacobi.HybridFull, jacobi.PureSM)
				}
			}
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

	// A figure whose sweeps equal the previous figure's (7 after 6, 9
	// after 8) renders the points already in hand. The report is written
	// only once every figure rendered: an error discards it whole.
	var report strings.Builder
	var last []dse.KernelOptions
	var points []dse.KernelPoint
	for i, f := range figs {
		if !reflect.DeepEqual(plan[i], last) {
			points = nil
			for _, o := range plan[i] {
				pts, err := dse.KernelSweepCtx(ctx, o)
				if err != nil {
					return fmt.Errorf("-fig %s: %w", f.name, err)
				}
				points = append(points, pts...)
			}
			last = plan[i]
		}
		fmt.Fprintln(&report, f.render(points))
	}
	_, err := io.WriteString(stdout, report.String())
	return err
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
