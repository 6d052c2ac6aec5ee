// Command medea-scenarios runs declarative JSON scenario files: each file
// names its workloads (the jacobi, matmul and syncbench kernels, or
// synthetic noc traffic) and sweep axes, and the runner executes the
// cross-product in parallel and prints one row per point as a table, CSV
// or JSON, or draws one of the paper's figures from the rows (-format
// fig6 ... kernel). Ready-to-run files live in examples/scenarios/ and,
// one per figure, examples/figures/; the format is documented in
// internal/scenario and the figure/table map in REPRODUCING.md.
//
// Examples:
//
//	medea-scenarios examples/scenarios/patterns-sweep.json
//	medea-scenarios examples/scenarios/kernel-ablation.json
//	medea-scenarios -format csv -out fig8.csv examples/scenarios/fig8-quick.json
//	medea-scenarios -format fig9 examples/scenarios/fig8-quick.json
//	medea-scenarios -vcd noc.vcd examples/figures/detail.json
//	medea-scenarios examples/figures/fig6-full.json
//	medea-scenarios -validate examples/scenarios/*.json
//	medea-scenarios -worker-listen :9000   # on each worker host
//	medea-scenarios -shards 4 -worker-url http://host1:9000,http://host2:9000 examples/scenarios/fig8-quick.json
//	medea-scenarios -workloads
//	medea-scenarios -patterns
//	medea-scenarios -routers
//	medea-scenarios -topologies
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
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
	format := fs.String("format", "", "output format: "+strings.Join(scenario.FormatNames(), " | ")+` (default: the scenario file's "output", else table; a figure format draws the paper's figure or table of that name from a kernel scenario's rows)`)
	outPath := fs.String("out", "", "write results to this file instead of stdout (single scenario only)")
	par := fs.Int("parallelism", 0, "max concurrent simulations (0 = GOMAXPROCS); overrides the scenario file")
	validate := fs.Bool("validate", false, "load and validate the scenario files without running them")
	record := fs.String("record", "", `record the scenario's single run to this trace file (one single-point scenario; replay it with a "trace" workload scenario)`)
	vcdPath := fs.String("vcd", "", "write the NoC activity waveform (VCD) of the scenario's single run to this file (one single-point jacobi scenario)")
	cacheBackend := fs.String("cache", resultcache.BackendOff, "result cache backend: off | mem | disk (disk persists across runs; output is byte-identical either way)")
	cacheDir := fs.String("cache-dir", "", "directory for -cache disk")
	cacheBudget := fs.Int64("cache-budget", 0, "byte budget for -cache mem (0 = 64 MiB default)")
	shards := fs.Int("shards", 0, `split each sweep into this many shards run on the -worker-url workers and merge the rows (0 = single-process; output is byte-identical either way)`)
	workerURLs := fs.String("worker-url", "", "comma-separated http:// or https:// URLs of -worker-listen workers to run the -shards on (required with -shards)")
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
	}{{"-parallelism", *par}, {"-shards", *shards}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	// Shards run only on -worker-url workers, and worker URLs without
	// -shards would silently run single-process. A worker runs each shard
	// at the parallelism its coordinator sends, so its own -parallelism
	// would be silently ignored.
	switch {
	case *workerListen != "" && *par != 0:
		return fmt.Errorf("-parallelism does not apply to -worker-listen: a worker runs each shard at the coordinator's -parallelism")
	case *workerURLs != "" && *shards == 0:
		return fmt.Errorf("-worker-url only applies to a sharded run: add -shards N")
	case *shards != 0 && *workerURLs == "":
		return fmt.Errorf("-shards needs -worker-url: shards run on -worker-listen workers")
	}
	urls, err := parseWorkerURLs(*workerURLs)
	if err != nil {
		return err
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
	if *workerListen != "" {
		rcache, err := resultcache.Open(*cacheBackend, *cacheDir, *cacheBudget)
		if err != nil {
			return err
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
	if *record != "" || *vcdPath != "" {
		// A trace or a waveform captures one run: capturing is a
		// single-process, single-file, uncached mode of its own.
		switch {
		case *record != "" && *vcdPath != "":
			return fmt.Errorf("-record and -vcd are mutually exclusive")
		case fs.NArg() > 1:
			return fmt.Errorf("-record and -vcd capture a single run: got %d scenario files, want one", fs.NArg())
		case *validate:
			return fmt.Errorf("-record and -vcd do not apply to -validate")
		case *shards != 0:
			return fmt.Errorf("-record and -vcd need a single in-process run; drop -shards")
		}
		return captureRun(ctx, fs.Arg(0), *record, *vcdPath, *par, *format, *outPath, stdout)
	}
	// One cache across every scenario on the command line, so a batch that
	// revisits points (overlapping grids, repeated files) dedups across
	// files too.
	rcache, err := resultcache.Open(*cacheBackend, *cacheDir, *cacheBudget)
	if err != nil {
		return err
	}

	// Load every file and resolve its format first: a figure format that
	// does not fit a file's workload fails before any point runs.
	scenarios := make([]*scenario.Scenario, fs.NArg())
	for i, path := range fs.Args() {
		s, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if _, err := s.ResolveFormat(*format); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *validate {
			log.Printf("%s: OK (%s)", path, scenario.Summary(s))
		}
		scenarios[i] = s
	}
	if *validate {
		return nil
	}
	for _, s := range scenarios {
		if *par != 0 {
			s.Parallelism = *par
		}
		s.Cache = rcache.Scope() // per-file counters over the shared store
		log.Printf("running %s", scenario.Summary(s))

		var results []scenario.Result
		if *shards > 0 {
			co := &shard.Coordinator{
				NewWorker:   shard.HTTPFactory(urls),
				Shards:      *shards,
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
		if err := writeRendered(s, results, *format, *outPath, stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeRendered renders the results of a run of s in format to the file
// at outPath, or to stdout when outPath is empty.
func writeRendered(s *scenario.Scenario, results []scenario.Result, format, outPath string, stdout io.Writer) error {
	rendered, err := s.Render(results, format)
	if err != nil {
		return err
	}
	if outPath == "" {
		_, err = io.WriteString(stdout, rendered)
		return err
	}
	if err := os.WriteFile(outPath, []byte(rendered), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", outPath)
	return nil
}

// captureRun runs one single-point scenario with a trace recorder (to
// tracePath) or a waveform writer (to vcdPath) attached, saves the
// capture, and renders the run's rows, so the logged merkle root can be
// compared against a later replay's or an uncaptured run's.
func captureRun(ctx context.Context, path, tracePath, vcdPath string, parallelism int, format, outPath string, stdout io.Writer) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if parallelism != 0 {
		s.Parallelism = parallelism
	}
	if _, err := s.ResolveFormat(format); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	log.Printf("capturing %s", scenario.Summary(s))
	var results []scenario.Result
	if tracePath != "" {
		t, r, err := scenario.RecordCtx(ctx, s)
		if err != nil {
			return err
		}
		if err := t.Save(tracePath); err != nil {
			return err
		}
		results = r
		// The root is the replay contract: a same-fabric replay of this
		// trace must merge to the same merkle root (give the replay
		// scenario the same "name").
		log.Printf("%s: recorded %d events to %s (sha256 %s); merkle root %s",
			s.Name, len(t.Events), tracePath, t.Hash(), scenario.MerkleRoot(results))
	} else {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if results, err = scenario.WaveformCtx(ctx, s, w); err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(vcdPath)
			return err
		}
		log.Printf("%s: wrote the NoC waveform to %s; merkle root %s", s.Name, vcdPath, scenario.MerkleRoot(results))
	}
	return writeRendered(s, results, format, outPath, stdout)
}

// parseWorkerURLs splits -worker-url (nil when unset). Every entry must
// be an absolute http or https URL with a host: a malformed one is a
// usage error before anything runs, not a failure on every retry.
func parseWorkerURLs(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	urls := strings.Split(list, ",")
	for _, u := range urls {
		p, err := url.Parse(u)
		if err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
			return nil, fmt.Errorf("-worker-url entry %q is not an http:// or https:// URL with a host", u)
		}
	}
	return urls, nil
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
