// Command medea-serve runs the MEDEA simulator as a hardened HTTP/JSON
// daemon: clients POST scenario files (the exact format cmd/medea-
// scenarios runs) to /v1/jobs, poll their status and fetch rendered
// results — byte-identical to the CLI's output for the same scenario.
//
// Robustness properties, all test-enforced (internal/serve):
//
//   - Bounded admission: a fixed-depth queue; when full, submissions are
//     rejected with 429 + Retry-After instead of buffering unboundedly.
//   - Per-job deadlines: -job-timeout cancels overlong jobs cooperatively
//     (the engine polls its context mid-simulation); the worker is
//     released, nothing leaks.
//   - Panic isolation: a job that panics fails alone; the daemon serves on.
//   - Graceful drain: SIGTERM/SIGINT stops admission, finishes or cancels
//     in-flight jobs within -drain-timeout, then exits 0.
//
// The daemon fronts a content-addressed result cache (-cache, default an
// in-memory LRU; -cache disk -cache-dir D persists across restarts):
// resubmitting a scenario serves its points from the store instead of
// resimulating, job status reports per-job hit counts and the run's
// Merkle ledger root, and rendered results stay byte-identical to a
// cache-off run.
//
// Examples:
//
//	medea-serve -addr 127.0.0.1:8080
//	medea-serve -addr 127.0.0.1:0 -workers 4 -queue 32 -job-timeout 5m
//	curl -s -XPOST --data-binary @examples/scenarios/smoke.json localhost:8080/v1/jobs
//	curl -s localhost:8080/v1/jobs/job-000001/result
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-serve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run starts the daemon and blocks until a termination signal has been
// drained or the listener fails. The bound address is printed to stdout
// first ("listening on host:port"), so scripts can use -addr with port 0
// and scrape the port.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medea-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port, printed on stdout)")
	queue := fs.Int("queue", 16, "queued-job bound; a full queue rejects submissions with 429 + Retry-After")
	workers := fs.Int("workers", 2, "jobs running concurrently")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline (0 = none); expired jobs are canceled, not leaked")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted request body in bytes (larger gets 413)")
	cacheBackend := fs.String("cache", resultcache.BackendMemory, "result cache backend: off | mem | disk; resubmitted scenarios become cache hits, surfaced in job status")
	cacheDir := fs.String("cache-dir", "", "directory for -cache disk (survives daemon restarts)")
	cacheBudget := fs.Int64("cache-budget", 0, "byte budget for -cache mem (0 = 64 MiB default)")
	shardWorkers := fs.Int("shard-workers", 0, "fan each accepted job out over this many shard worker processes (0 = run jobs in-process); results are byte-identical either way")
	workerCmd := fs.String("worker-cmd", "", "worker command for -shard-workers, space-separated (default: this binary re-exec'd with -worker; -cache disk gives the fleet one shared store)")
	workerMode := fs.Bool("worker", false, "serve the shard worker protocol on stdin/stdout (started by a coordinator, not by hand)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: medea-serve [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Serves scenario simulations over HTTP/JSON (see internal/serve for\n")
		fmt.Fprintf(fs.Output(), "the API and DESIGN.md for lifecycle and backpressure semantics).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// 0 picks a default or turns a limit off; a negative value is a usage
	// error, not another way to say 0.
	for _, f := range []struct {
		name string
		v    int64
	}{{"-queue", int64(*queue)}, {"-workers", int64(*workers)}, {"-max-body", *maxBody},
		{"-cache-budget", *cacheBudget}, {"-shard-workers", int64(*shardWorkers)}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"-job-timeout", *jobTimeout}, {"-drain-timeout", *drainTimeout}, {"-retry-after", *retryAfter}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %v", f.name, f.v)
		}
	}

	rcache, err := resultcache.Open(*cacheBackend, *cacheDir, *cacheBudget)
	if err != nil {
		return err
	}
	if *workerMode {
		return shard.ServeWorker(context.Background(), os.Stdin, stdout, rcache)
	}
	cfg := serve.Config{
		QueueDepth:   *queue,
		Workers:      *workers,
		JobTimeout:   *jobTimeout,
		RetryAfter:   *retryAfter,
		MaxBodyBytes: *maxBody,
		Cache:        rcache,
	}
	if *shardWorkers > 0 {
		runner, err := shardRunner(*shardWorkers, *workerCmd, *cacheBackend, *cacheDir, *cacheBudget)
		if err != nil {
			return err
		}
		cfg.Runner = runner
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	httpSrv := serve.NewHTTPServer(srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}

	log.Printf("signal received; draining (budget %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain jobs first — polling endpoints stay up so clients can fetch
	// the results of jobs that finish during the drain window.
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain deadline reached; in-flight jobs canceled")
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		httpSrv.Close()
	}
	log.Printf("drained; exiting")
	return nil
}

// shardRunner builds the serve.Runner that fans each accepted job out
// over n fresh worker processes. Workers run under the job's context, so
// job cancellation (timeout, client cancel, drain) kills them; fresh
// processes per job keep worker lifetime inside job lifetime — cross-job
// caching is the disk store's business (-cache disk is shared by the
// daemon and every worker it spawns). The fleet's cache counters bubble
// into the job's scope, so job status reports hits exactly as an
// in-process run would.
func shardRunner(n int, workerCmd, cacheBackend, cacheDir string, cacheBudget int64) (serve.Runner, error) {
	var argv []string
	if workerCmd != "" {
		argv = strings.Fields(workerCmd)
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
	return func(ctx context.Context, s *scenario.Scenario) ([]scenario.Result, error) {
		co := &shard.Coordinator{
			NewWorker: shard.ProcFactory(shard.ProcSpec{Command: argv}),
			Shards:    n,
			Workers:   n,
			Logf:      log.Printf,
		}
		results, stats, err := co.Run(ctx, s)
		if err != nil {
			return nil, err
		}
		s.Cache.AddExternal(stats)
		return results, nil
	}, nil
}
