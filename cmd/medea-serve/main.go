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
//	curl -s localhost:8080/metrics
//
// serve.Client is the Go client of the same API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/resultcache"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run starts the daemon and blocks until ctx is canceled (main cancels it
// on SIGTERM/SIGINT) and the daemon has drained, or the listener fails.
// The bound address is printed to stdout first ("listening on
// host:port"), so a caller can use -addr with port 0 and read the port.
// The drain is logged through log/slog.
func run(ctx context.Context, args []string, stdout io.Writer) error {
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
	}{{"-queue", int64(*queue)}, {"-workers", int64(*workers)}, {"-max-body", *maxBody}, {"-cache-budget", *cacheBudget}} {
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
	srv := serve.New(serve.Config{
		QueueDepth:   *queue,
		Workers:      *workers,
		JobTimeout:   *jobTimeout,
		RetryAfter:   *retryAfter,
		MaxBodyBytes: *maxBody,
		Cache:        rcache,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	httpSrv := serve.NewHTTPServer(srv.Handler())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	slog.Info("draining", "budget", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain jobs first — polling endpoints stay up so clients can fetch
	// the results of jobs that finish during the drain window.
	if err := srv.Shutdown(dctx); err != nil {
		slog.Warn("drain deadline reached; in-flight jobs canceled", "budget", *drainTimeout)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		httpSrv.Close()
	}
	slog.Info("drained; exiting")
	return nil
}
