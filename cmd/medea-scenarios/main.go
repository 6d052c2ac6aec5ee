// Command medea-scenarios runs declarative JSON scenario files: each file
// names its workloads (the jacobi, matmul and syncbench kernels, or
// synthetic noc traffic) and sweep axes, and the runner executes the
// cross-product in parallel and prints one row per point as a table, CSV
// or JSON. Ready-to-run files live in examples/scenarios/; the format is
// documented in internal/scenario and the figure/table map in
// REPRODUCING.md.
//
// Examples:
//
//	medea-scenarios examples/scenarios/patterns-sweep.json
//	medea-scenarios examples/scenarios/kernel-ablation.json
//	medea-scenarios -format csv -out fig8.csv examples/scenarios/fig8-quick.json
//	medea-scenarios -validate examples/scenarios/*.json
//	medea-scenarios -workloads
//	medea-scenarios -patterns
//	medea-scenarios -routers
//	medea-scenarios -topologies
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-scenarios: ")
	// Ctrl-C / SIGTERM cancel the sweep cooperatively: dispatch stops,
	// in-flight simulations abort within a few thousand simulated cycles,
	// and the process exits promptly instead of finishing the sweep.
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

// run executes the CLI against args, writing results to stdout; logs
// (progress, summaries) go through the log package so -format csv output
// stays machine-clean. main wires Ctrl-C into ctx.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medea-scenarios", flag.ContinueOnError)
	format := fs.String("format", "", `output format: table | csv | json (default: the scenario file's "output", else table)`)
	outPath := fs.String("out", "", "write results to this file instead of stdout (single scenario only)")
	par := fs.Int("parallelism", 0, "max concurrent simulations (0 = GOMAXPROCS); overrides the scenario file")
	validate := fs.Bool("validate", false, "load and validate the scenario files without running them")
	record := fs.String("record", "", `record the scenario's single run to this trace file (one single-point scenario; replay it with a "trace" workload scenario)`)
	cacheBackend := fs.String("cache", resultcache.BackendOff, "result cache backend: off | mem | disk (disk persists across runs; output is byte-identical either way)")
	cacheDir := fs.String("cache-dir", "", "directory for -cache disk")
	cacheBudget := fs.Int64("cache-budget", 0, "byte budget for -cache mem (0 = 64 MiB default)")
	shards := fs.Int("shards", 0, `split each sweep into this many shards run by worker processes and merge the rows (0 = single-process; output is byte-identical either way)`)
	workers := fs.Int("workers", 0, "max concurrently running shard workers (0 = one per shard); each worker runs -parallelism simulations, so shards x parallelism run fleet-wide")
	workerCmd := fs.String("worker-cmd", "", "worker command for sharded runs, space-separated (default: this binary re-exec'd with -worker and the cache flags)")
	workerURLs := fs.String("worker-url", "", "comma-separated remote worker URLs (medea-scenarios -worker-listen endpoints) to shard over instead of local processes")
	workerMode := fs.Bool("worker", false, "serve the shard worker protocol on stdin/stdout (started by a coordinator, not by hand)")
	workerListen := fs.String("worker-listen", "", "serve the shard worker protocol over HTTP on this address (for -worker-url coordinators)")
	workloads := fs.Bool("workloads", false, "list the available workloads and exit")
	patterns := fs.Bool("patterns", false, "list the available traffic patterns and exit")
	routers := fs.Bool("routers", false, "list the available router algorithms and exit")
	topologies := fs.Bool("topologies", false, "list the available topologies and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: medea-scenarios [flags] scenario.json [scenario.json ...]\n\n")
		fmt.Fprintf(fs.Output(), "Runs declarative scenario files (see examples/scenarios/ and the\n")
		fmt.Fprintf(fs.Output(), "internal/scenario package docs for the format).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-parallelism", *par}, {"-shards", *shards}, {"-workers", *workers}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	// The sharding flags without -shards would silently run single-process.
	for _, f := range []struct {
		name string
		set  bool
	}{{"-workers", *workers != 0}, {"-worker-cmd", *workerCmd != ""}, {"-worker-url", *workerURLs != ""}} {
		if f.set && *shards == 0 {
			return fmt.Errorf("%s only applies to a sharded run: add -shards N", f.name)
		}
	}

	// Catch the typo before hours of sweep, not after.
	if err := scenario.CheckFormat(*format, "-format"); err != nil {
		return err
	}

	if *workloads {
		fmt.Fprintf(stdout, "%s\n", strings.Join(scenario.WorkloadNames(), "\n"))
		return nil
	}
	if *patterns {
		fmt.Fprintf(stdout, "%s\n", strings.Join(noc.PatternNames(), "\n"))
		return nil
	}
	if *routers {
		fmt.Fprintf(stdout, "%s\n", strings.Join(noc.RouterNames(), "\n"))
		return nil
	}
	if *topologies {
		fmt.Fprintf(stdout, "%s\n", strings.Join(noc.TopologyNames(), "\n"))
		return nil
	}
	if *workerMode || *workerListen != "" {
		rcache, err := resultcache.Open(*cacheBackend, *cacheDir, *cacheBudget)
		if err != nil {
			return err
		}
		if *workerMode {
			return shard.ServeWorker(ctx, os.Stdin, stdout, rcache)
		}
		return serveWorkerHTTP(ctx, *workerListen, rcache)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no scenario files given")
	}
	if *outPath != "" && fs.NArg() > 1 {
		return fmt.Errorf("-out only works with a single scenario file")
	}
	if *record != "" {
		// A trace captures one run: recording is a single-process,
		// single-file, uncached mode of its own.
		switch {
		case fs.NArg() > 1:
			return fmt.Errorf("-record captures a single run: got %d scenario files, want one", fs.NArg())
		case *validate:
			return fmt.Errorf("-record and -validate are mutually exclusive")
		case *shards != 0:
			return fmt.Errorf("-record needs a single in-process run; drop -shards")
		}
		return recordTrace(ctx, fs.Arg(0), *record, *par, *format, *outPath, stdout)
	}
	// One cache across every scenario on the command line, so a batch that
	// revisits points (overlapping grids, repeated files) dedups across
	// files too.
	rcache, err := resultcache.Open(*cacheBackend, *cacheDir, *cacheBudget)
	if err != nil {
		return err
	}
	newWorker, err := workerFactory(*workerURLs, *workerCmd, *cacheBackend, *cacheDir, *cacheBudget)
	if err != nil {
		return err
	}

	for _, path := range fs.Args() {
		s, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if *validate {
			log.Printf("%s: OK (%s)", path, scenario.Summary(s))
			continue
		}
		if *par != 0 {
			s.Parallelism = *par
		}
		s.Cache = rcache.Scope() // per-file counters over the shared store
		log.Printf("running %s", scenario.Summary(s))

		var results []scenario.Result
		if *shards > 0 {
			co := &shard.Coordinator{
				NewWorker:   newWorker,
				Shards:      *shards,
				Workers:     *workers,
				Parallelism: *par,
				Logf:        log.Printf,
			}
			merged, stats, err := co.Run(ctx, s)
			if err != nil {
				return err
			}
			// Bubble the fleet's cache counters into this file's scope (and
			// the shared store's), as a single-process run would have.
			s.Cache.AddExternal(stats)
			results = merged
			// Stderr via log, so -format csv/json stdout stays machine-clean.
			// The merged root is always logged for sharded runs: it is the
			// figure to compare against a single-process run's root.
			log.Printf("%s: merged %d shards; cache %v; merkle root %s", s.Name, *shards, s.Cache.Stats(), scenario.MerkleRoot(results))
		} else {
			r, err := scenario.RunCtx(ctx, s)
			if err != nil {
				return err
			}
			results = r
			if s.Cache != nil {
				// Stderr via log, so -format csv/json stdout stays machine-clean.
				log.Printf("%s: cache %v; merkle root %s", s.Name, s.Cache.Stats(), scenario.MerkleRoot(results))
			}
		}
		rendered, err := scenario.Render(results, s.ResolveFormat(*format))
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, []byte(rendered), 0o644); err != nil {
				return err
			}
			log.Printf("wrote %s", *outPath)
			continue
		}
		if _, err := io.WriteString(stdout, rendered); err != nil {
			return err
		}
	}
	return nil
}

// recordTrace runs one single-point scenario with a trace recorder
// attached, saves the capture, and renders the source run's rows so the
// logged merkle root can be compared against a later replay's.
func recordTrace(ctx context.Context, path, out string, parallelism int, format, outPath string, stdout io.Writer) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if parallelism != 0 {
		s.Parallelism = parallelism
	}
	log.Printf("recording %s", scenario.Summary(s))
	t, results, err := scenario.RecordCtx(ctx, s)
	if err != nil {
		return err
	}
	if err := t.Save(out); err != nil {
		return err
	}
	// The root is the replay contract: a same-fabric replay of this trace
	// must merge to the same merkle root (give the replay scenario the
	// same "name").
	log.Printf("%s: recorded %d events to %s (sha256 %s); merkle root %s",
		s.Name, len(t.Events), out, t.Hash(), scenario.MerkleRoot(results))
	rendered, err := scenario.Render(results, s.ResolveFormat(format))
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(rendered), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", outPath)
		return nil
	}
	_, err = io.WriteString(stdout, rendered)
	return err
}

// workerFactory builds the coordinator's worker source: remote HTTP
// workers when -worker-url is set, else local processes running
// -worker-cmd (default: this binary re-exec'd in -worker mode with the
// run's cache flags, so -cache disk gives the fleet one shared store and
// cross-process dedup).
func workerFactory(urls, cmd, cacheBackend, cacheDir string, cacheBudget int64) (func(context.Context) (shard.Worker, error), error) {
	if urls != "" {
		return shard.HTTPFactory(strings.Split(urls, ",")), nil
	}
	var argv []string
	if cmd != "" {
		argv = strings.Fields(cmd)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = []string{exe, "-worker", "-cache", cacheBackend}
		if cacheDir != "" {
			argv = append(argv, "-cache-dir", cacheDir)
		}
		if cacheBudget != 0 {
			argv = append(argv, "-cache-budget", strconv.FormatInt(cacheBudget, 10))
		}
	}
	return shard.ProcFactory(shard.ProcSpec{Command: argv}), nil
}

// serveWorkerHTTP serves the shard worker protocol over HTTP until the
// context is canceled (-worker-listen).
func serveWorkerHTTP(ctx context.Context, addr string, rcache *resultcache.Cache) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("worker listening on %s", ln.Addr())
	srv := serve.NewHTTPServer(shard.Handler(rcache))
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
