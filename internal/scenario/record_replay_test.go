package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
