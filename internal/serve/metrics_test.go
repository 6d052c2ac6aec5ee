package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// nocJSON is a one-point noc-synthetic scenario body; the rate picks the
// point, so two rates are two cache entries.
func nocJSON(name string, rate float64) string {
	return fmt.Sprintf(`{"name": %q, "workload": "noc-synthetic", "noc": {"width": 4, "height": 4,
		"patterns": ["uniform"], "rates": [%g], "warmup_cycles": 100, "measure_cycles": 500}}`, name, rate)
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (\S+)$`)
	metaLine   = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
)

// parseMetrics accepts the Prometheus text exposition format as far as
// the daemon uses it: HELP and TYPE comments, then samples with optional
// labels and a float value. Every sample must follow its series' TYPE
// line, and each TYPE must be a counter or a gauge. It returns the samples
// keyed by name and labels.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := metaLine.FindStringSubmatch(line); m != nil {
			if m[1] == "TYPE" {
				if m[3] != "counter" && m[3] != "gauge" {
					t.Fatalf("line %d: type %q", i+1, m[3])
				}
				typed[m[2]] = true
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not a sample: %q", i+1, line)
		}
		if !typed[m[1]] {
			t.Fatalf("line %d: sample of %s before its TYPE line", i+1, m[1])
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("line %d: value: %v", i+1, err)
		}
		key := m[1] + m[2]
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: %s twice", i+1, key)
		}
		samples[key] = v
	}
	return samples
}

// TestMetricsSeriesMove scrapes /metrics before and after traffic that
// touches every series: jobs reach every state, one submission meets a
// full queue, the cache hits, misses and evicts, goroutines are parked
// and heap is held. Every series must parse and move.
func TestMetricsSeriesMove(t *testing.T) {
	// The budget holds one entry but not two, so a second distinct point
	// evicts the first.
	probe := resultcache.NewMemoryStore(0)
	sc, err := scenario.Parse([]byte(nocJSON("probe", 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	sc.Cache = resultcache.New(probe)
	if _, err := scenario.RunCtx(t.Context(), sc); err != nil {
		t.Fatal(err)
	}
	entry := probe.UsedBytes()

	holding, release := make(chan struct{}, 1), make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 2,
		Cache: resultcache.New(resultcache.NewMemoryStore(entry * 3 / 2)),
		Runner: func(ctx context.Context, sc *scenario.Scenario) ([]scenario.Result, error) {
			switch sc.Name {
			case "hold":
				holding <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			case "fail":
				return nil, errors.New("failed on purpose")
			}
			return scenario.RunCtx(ctx, sc)
		},
	})
	defer shutdownAll(t, s, release)
	c, ts := serveHTTP(t, s)

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseMetrics(t, string(body))
	}
	runtime.GC() // so the held slice below outweighs whatever garbage is collected
	before := scrape()

	for _, body := range []string{nocJSON("a", 0.1), nocJSON("a", 0.1), nocJSON("b", 0.2), nocJSON("fail", 0.1)} {
		st := submit(t, c, body)
		if _, err := c.Wait(t.Context(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	submit(t, c, nocJSON("hold", 0.1))
	<-holding
	canceled := submit(t, c, nocJSON("canceled", 0.1))
	if _, err := c.Cancel(t.Context(), canceled.ID); err != nil {
		t.Fatal(err)
	}
	submit(t, c, nocJSON("queued", 0.1))
	if _, err := c.Submit(t.Context(), strings.NewReader(nocJSON("rejected", 0.1))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v", err)
	}
	// Enough parked goroutines to outnumber any a previous test's closed
	// connections still have to unwind.
	parked := make(chan struct{})
	for range 64 {
		go func() { <-parked }()
	}
	defer close(parked)
	held := make([]byte, 8<<20)
	after := scrape()

	want := map[string]float64{
		"medea_serve_queue_depth":            2, // the canceled job's slot and the queued one
		`medea_serve_jobs{state="queued"}`:   1,
		`medea_serve_jobs{state="running"}`:  1,
		`medea_serve_jobs{state="done"}`:     3,
		`medea_serve_jobs{state="failed"}`:   1,
		`medea_serve_jobs{state="canceled"}`: 1,
		"medea_serve_queue_full_total":       1,
		"medea_serve_cache_hits_total":       1,
		"medea_serve_cache_misses_total":     2,
		"medea_serve_cache_evictions_total":  1,
	}
	for key, v := range after {
		if _, ok := before[key]; !ok {
			t.Errorf("%s appeared only after traffic", key)
		}
		if v == before[key] {
			t.Errorf("%s did not move: %v", key, v)
		}
		if w, ok := want[key]; ok && v != w {
			t.Errorf("%s = %v, want %v", key, v, w)
		}
	}
	for key := range want {
		if _, ok := after[key]; !ok {
			t.Errorf("%s missing", key)
		}
	}
	for _, key := range []string{"go_goroutines", "go_memstats_heap_inuse_bytes"} {
		if after[key] <= before[key] {
			t.Errorf("%s went from %v to %v, want it higher", key, before[key], after[key])
		}
	}
	if len(after) != len(before) || len(after) != len(want)+2 {
		t.Errorf("%d series before traffic, %d after, want %d", len(before), len(after), len(want)+2)
	}
	runtime.KeepAlive(held)
}
