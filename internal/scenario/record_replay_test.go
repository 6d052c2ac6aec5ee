package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/resultcache"
)

// TestRecordReplayScenarioGolden is the scenario-level replay contract:
// recording a single-point run and replaying the capture on the same
// fabric renders byte-identical rows in every output format and merges to
// the same merkle root — with the result cache and idle fast-forward both
// live on the replay side.
func TestRecordReplayScenarioGolden(t *testing.T) {
	src := mustParse(t, `{
		"name": "golden-rt",
		"workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["transpose"], "rates": [0.12],
		        "warmup_cycles": 100, "measure_cycles": 900},
		"seeds": [13]
	}`)
	tr, srcResults, err := RecordCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("recorded no events")
	}
	path := filepath.Join(t.TempDir(), "golden.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	replay := mustParse(t, `{
		"name": "golden-rt",
		"workload": "trace",
		"trace": {"file": "`+path+`"}
	}`)
	cache, err := resultcache.Open(resultcache.BackendMemory, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	replay.Cache = cache
	repResults, err := RunCtx(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := MerkleRoot(repResults), MerkleRoot(srcResults); got != want {
		t.Errorf("merkle root skew: replay %s, source %s", got, want)
	}
	for _, format := range []string{FormatTable, FormatCSV, FormatJSON} {
		a, err := Render(srcResults, format)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Render(repResults, format)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s output differs:\nsource:\n%s\nreplay:\n%s", format, a, b)
		}
	}

	// Warm rerun: every replay point must come from the cache, and the
	// rows must still match (the cache codec drops no rendered field).
	again, err := RunCtx(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := MerkleRoot(again), MerkleRoot(srcResults); got != want {
		t.Errorf("cached replay merkle root skew: %s vs %s", got, want)
	}
	if s := replay.Cache.Stats(); s.Hits == 0 {
		t.Errorf("warm replay hit the cache 0 times: %+v", s)
	}
}

// TestRecordedKernelTrace: kernel runs record their eMPI message skeleton
// through the tie send-recorder; the capture decodes, replays through the
// noc fabric, and is deterministic run to run.
func TestRecordedKernelTrace(t *testing.T) {
	src := `{
		"name": "kernel-rec",
		"workload": "jacobi",
		"kernel": {"n": 12, "cores": [4], "cache_kb": [4], "variants": ["hybrid-full"]}
	}`
	tr, _, err := RecordCtx(context.Background(), mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("kernel run recorded no message events")
	}
	again, _, err := RecordCtx(context.Background(), mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Hash() != again.Hash() {
		t.Errorf("kernel recording not deterministic: %s vs %s", tr.Hash(), again.Hash())
	}

	// The capture replays: save it, point a trace scenario at it, run.
	path := filepath.Join(t.TempDir(), "kernel.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	replay := mustParse(t, `{
		"name": "kernel-rec-replay",
		"workload": "trace",
		"trace": {"file": "`+path+`"}
	}`)
	results, err := RunCtx(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d replay rows, want 1", len(results))
	}
	if results[0].Delivered == 0 {
		t.Error("kernel-trace replay delivered nothing")
	}
}

// TestRecordIsPerRun records a one-point jacobi run while plain runs of
// another kernel scenario send messages in the same process. The recorder
// belongs to the recording run alone, so the capture must equal the one
// recorded with nothing beside it (run with -race).
func TestRecordIsPerRun(t *testing.T) {
	ctx := context.Background()
	const src = `{
		"name": "kernel-rec",
		"workload": "jacobi",
		"kernel": {"n": 12, "cores": [4], "cache_kb": [4], "variants": ["hybrid-full"]}
	}`
	alone, _, err := RecordCtx(ctx, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	beside := mustParse(t, `{
		"name": "beside",
		"workload": "syncbench",
		"kernel": {"cores": [4, 6], "cache_kb": [4], "variants": ["hybrid-full"], "rounds": 4}
	}`)
	rec := mustParse(t, src)

	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := RunCtx(ctx, beside); err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	got, _, err := RecordCtx(ctx, rec)
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != alone.Hash() {
		t.Errorf("capture beside concurrent kernel runs has %d events (hash %s), recorded alone %d (hash %s)",
			len(got.Events), got.Hash(), len(alone.Events), alone.Hash())
	}
}

// TestCommittedTraceFresh guards the committed example trace against
// simulator drift: re-recording its source scenario must reproduce the
// committed bytes exactly. When this fails, the traffic or recording path
// changed behaviour — regenerate with
//
//	go run ./cmd/medea-scenarios -record examples/scenarios/traces/uniform-4x4.trace examples/scenarios/trace-record-quick.json
//
// and review the resulting diff in the replay goldens.
func TestCommittedTraceFresh(t *testing.T) {
	s, err := Load("../../examples/scenarios/trace-record-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := RecordCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../../examples/scenarios/traces/uniform-4x4.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Encode(), committed) {
		t.Error("examples/scenarios/traces/uniform-4x4.trace is stale: re-recording trace-record-quick.json produced different bytes;\n" +
			"regenerate with: go run ./cmd/medea-scenarios -record examples/scenarios/traces/uniform-4x4.trace examples/scenarios/trace-record-quick.json")
	}
}

// TestCaptureBypassesCache: a trace or waveform capture runs its point
// uncached even with a warm result cache attached, because a hit would
// skip the simulation and capture nothing. Each capture must equal the
// one taken without a cache, and its rows the cached run's.
func TestCaptureBypassesCache(t *testing.T) {
	ctx := context.Background()
	const jacobiPoint = `{"name": "capture", "workload": "jacobi",
		"kernel": {"n": 12, "cores": [4], "cache_kb": [4], "variants": ["hybrid-full"]}}`
	const nocPoint = `{"name": "capture", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1],
		        "warmup_cycles": 100, "measure_cycles": 400}, "seeds": [7]}`
	warm := func(src string) (*Scenario, []Result) {
		s := mustParse(t, src)
		s.Cache = resultcache.New(resultcache.NewMemoryStore(0))
		rows, err := RunCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		return s, rows
	}
	for name, src := range map[string]string{"jacobi": jacobiPoint, "noc": nocPoint} {
		cold, _, err := RecordCtx(ctx, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		s, rows := warm(src)
		got, gotRows, err := RecordCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold.Events) == 0 || got.Hash() != cold.Hash() {
			t.Errorf("%s: recording over a warm cache has %d events (hash %s), without a cache %d (hash %s)",
				name, len(got.Events), got.Hash(), len(cold.Events), cold.Hash())
		}
		if MerkleRoot(gotRows) != MerkleRoot(rows) {
			t.Errorf("%s: recorded rows differ from the cached run's", name)
		}
	}

	var cold, got bytes.Buffer
	if _, err := WaveformCtx(ctx, mustParse(t, jacobiPoint), &cold); err != nil {
		t.Fatal(err)
	}
	s, rows := warm(jacobiPoint)
	gotRows, err := WaveformCtx(ctx, s, &got)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Len() == 0 || !bytes.Equal(got.Bytes(), cold.Bytes()) {
		t.Errorf("waveform over a warm cache has %d bytes, without a cache %d", got.Len(), cold.Len())
	}
	if MerkleRoot(gotRows) != MerkleRoot(rows) {
		t.Error("waveform run's rows differ from the cached run's")
	}
}
