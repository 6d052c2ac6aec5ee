package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// TestMain doubles as the worker entrypoint for the process-worker tests:
// the test binary re-exec'd with MEDEA_SHARD_WORKER=1 serves the frame
// protocol on stdio and exits, so worker processes need no separate
// binary to be built.
func TestMain(m *testing.M) {
	if os.Getenv("MEDEA_SHARD_WORKER") == "1" {
		cache := resultcache.New(resultcache.NewMemoryStore(0))
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, cache); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testProcFactory launches this test binary as a worker process.
func testProcFactory(t *testing.T) func(ctx context.Context) (Worker, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return ProcFactory(ProcSpec{Command: []string{exe}, Env: []string{"MEDEA_SHARD_WORKER=1"}})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Version: ProtocolVersion, ID: 7, Scenario: []byte(`{"workload":"noc-synthetic"}`), Shard: 2, Shards: 5, CodeVersion: "v1"}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	resp := &Response{ID: 7, Type: TypeResult, Done: 3, Total: 3, Root: "abc"}
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if err := ReadFrame(&buf, &gotReq); err != nil {
		t.Fatal(err)
	}
	if gotReq.ID != 7 || gotReq.Shard != 2 || gotReq.Shards != 5 || string(gotReq.Scenario) != `{"workload":"noc-synthetic"}` {
		t.Errorf("request did not round-trip: %+v", gotReq)
	}
	var gotResp Response
	if err := ReadFrame(&buf, &gotResp); err != nil {
		t.Fatal(err)
	}
	if gotResp.Type != TypeResult || gotResp.Done != 3 || gotResp.Root != "abc" {
		t.Errorf("response did not round-trip: %+v", gotResp)
	}
	// The stream is exhausted: the next read is a clean io.EOF, which the
	// worker loop treats as an orderly shutdown.
	if err := ReadFrame(&buf, &gotReq); err != io.EOF {
		t.Errorf("read past end = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	// A header claiming a frame larger than MaxFrame must be rejected
	// before any allocation, not trusted.
	buf := []byte{0xff, 0xff, 0xff, 0xff}
	var v Response
	err := ReadFrame(bytes.NewReader(buf), &v)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized header accepted: %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Response{ID: 1, Type: TypeResult}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	var v Response
	err := ReadFrame(bytes.NewReader(trunc), &v)
	if err == nil || err == io.EOF {
		t.Errorf("truncated frame read = %v, want a body error", err)
	}
}

func exampleScenarios(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v (%v)", files, err)
	}
	return files
}

// TestShardedSweepGolden is the acceptance test for the shard layer:
// every shipped example scenario, run sharded at several shard counts,
// must render byte-identically to the single-process run in every output
// format and carry the same Merkle root. One in-memory cache is shared
// across the direct run and all shard counts, both to keep the test fast
// and to exercise the cache through the worker path.
func TestShardedSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every example scenario at 5 shard counts")
	}
	for _, path := range exampleScenarios(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			cache := resultcache.New(resultcache.NewMemoryStore(0))
			direct, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			direct.Cache = cache.Scope()
			want, err := scenario.RunCtx(context.Background(), direct)
			if err != nil {
				t.Fatal(err)
			}
			wantRoot := scenario.MerkleRoot(want)
			for _, shards := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					s, err := scenario.Load(path)
					if err != nil {
						t.Fatal(err)
					}
					co := &Coordinator{
						NewWorker: func(ctx context.Context) (Worker, error) {
							return StartPipe(ctx, cache), nil
						},
						Shards: shards,
					}
					got, stats, err := co.Run(context.Background(), s)
					if err != nil {
						t.Fatal(err)
					}
					if root := scenario.MerkleRoot(got); root != wantRoot {
						t.Errorf("merkle root %s, single-process run has %s", root, wantRoot)
					}
					if stats.Hits == 0 {
						t.Errorf("warm shared cache reported no hits: %+v", stats)
					}
					for _, format := range []string{scenario.FormatTable, scenario.FormatCSV, scenario.FormatJSON} {
						wantR, err := scenario.Render(want, format)
						if err != nil {
							t.Fatal(err)
						}
						gotR, err := scenario.Render(got, format)
						if err != nil {
							t.Fatal(err)
						}
						if gotR != wantR {
							t.Errorf("%s render diverges from the single-process run:\n--- sharded ---\n%s--- direct ---\n%s", format, gotR, wantR)
						}
					}
				})
			}
		})
	}
}

// TestProcWorkerSharded runs the smoke scenario over real worker
// processes (this test binary re-exec'd): the full exec + stdio-frame
// path, verified against an in-process run.
func TestProcWorkerSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	want := directSmokeRun(t)
	s := loadSmoke(t)
	co := &Coordinator{NewWorker: testProcFactory(t), Shards: 3, Logf: t.Logf}
	got, _, err := co.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
}

// TestWorkerCrashRetry kills exactly one worker mid-shard (the crash-once
// hook) and verifies the coordinator replaces it, reruns the shard, and
// still merges a byte-identical result.
func TestWorkerCrashRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	marker := filepath.Join(t.TempDir(), "crash-claimed")
	t.Setenv(EnvCrashOnce, marker)
	want := directSmokeRun(t)
	s := loadSmoke(t)
	co := &Coordinator{NewWorker: testProcFactory(t), Shards: 4, Workers: 2, Logf: t.Logf}
	got, _, err := co.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Errorf("no worker claimed the crash marker: %v", err)
	}
	assertSameResults(t, got, want)
}

// TestRetryBudgetExhausted: when every worker crashes on every request
// (the crash-always hook), the run must fail after the retry budget, not
// spin forever.
func TestRetryBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv(EnvCrashAlways, "1")
	s := loadSmoke(t)
	co := &Coordinator{NewWorker: testProcFactory(t), Shards: 2, Retries: 1, Logf: t.Logf}
	_, _, err := co.Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Errorf("crash-always run = %v, want a giving-up error", err)
	}
}

// TestHTTPWorkerSharded shards the smoke scenario over the HTTP worker
// transport against an httptest server running the same Handler a
// -worker-listen process serves.
func TestHTTPWorkerSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke sweep twice")
	}
	want := directSmokeRun(t)
	cache := resultcache.New(resultcache.NewMemoryStore(0))
	srv := httptest.NewServer(Handler(cache))
	defer srv.Close()
	s := loadSmoke(t)
	co := &Coordinator{NewWorker: HTTPFactory([]string{srv.URL}), Shards: 3, Logf: t.Logf}
	got, _, err := co.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
}

// TestWorkerRejectsVersionSkew: a worker must refuse protocol- or
// code-version-skewed requests with a TypeError (fatal, no retry) rather
// than contribute rows computed by different semantics.
func TestWorkerRejectsVersionSkew(t *testing.T) {
	w := StartPipe(context.Background(), nil)
	defer w.Close()
	raw := []byte(`{"workload": "noc-synthetic", "noc": {"width": 2, "height": 2, "patterns": ["uniform"], "rates": [0.1], "measure_cycles": 200}}`)
	resp, err := w.Run(context.Background(), &Request{Scenario: raw, Shard: 0, Shards: 1, CodeVersion: "not-this-build"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeError || !strings.Contains(resp.Error, "code version") {
		t.Errorf("code-version skew answered %+v, want a TypeError naming the version", resp)
	}
}

// TestCoordinatorFailsFastOnBadScenario: an application error (here an
// unrunnable scenario reaching the worker) must abort the run without
// burning the retry budget.
func TestCoordinatorFailsFastOnBadScenario(t *testing.T) {
	s := loadSmoke(t)
	var attempts atomic.Int32 // NewWorker runs on the coordinator's worker goroutines
	co := &Coordinator{
		NewWorker: func(ctx context.Context) (Worker, error) {
			attempts.Add(1)
			return errorWorker{}, nil
		},
		Shards: 3,
	}
	_, _, err := co.Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run = %v, want the worker's application error", err)
	}
	if n := attempts.Load(); n > 3 {
		t.Errorf("application failure was retried: %d workers started", n)
	}
}

type errorWorker struct{}

func (errorWorker) Run(ctx context.Context, req *Request, progress func(*Response)) (*Response, error) {
	return &Response{ID: req.ID, Type: TypeError, Error: "boom"}, nil
}
func (errorWorker) Close() error { return nil }

// TestCoordinatorCancellation: canceling the run context must end the run
// promptly with the context's error.
func TestCoordinatorCancellation(t *testing.T) {
	s := loadSmoke(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	co := &Coordinator{
		NewWorker: func(ctx context.Context) (Worker, error) { return StartPipe(ctx, nil), nil },
		Shards:    4,
	}
	_, _, err := co.Run(ctx, s)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
}

func loadSmoke(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Load("../../examples/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func directSmokeRun(t *testing.T) []scenario.Result {
	t.Helper()
	want, err := scenario.RunCtx(context.Background(), loadSmoke(t))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertSameResults(t *testing.T, got, want []scenario.Result) {
	t.Helper()
	if root, wantRoot := scenario.MerkleRoot(got), scenario.MerkleRoot(want); root != wantRoot {
		t.Errorf("merkle root %s, single-process run has %s", root, wantRoot)
	}
	gotCSV, err := scenario.Render(got, scenario.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := scenario.Render(want, scenario.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if gotCSV != wantCSV {
		t.Errorf("sharded CSV diverges:\n--- sharded ---\n%s--- direct ---\n%s", gotCSV, wantCSV)
	}
}
