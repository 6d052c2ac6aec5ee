package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeSmoke runs the daemon as main does, on a free loopback port
// with the default flags (in-memory result cache), and drives it through
// serve.Client end to end.
func TestServeSmoke(t *testing.T) {
	body, err := os.ReadFile("../../examples/scenarios/fig8-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	// medea-scenarios' own rendering of fig8-quick, which its
	// TestGoldenFig8ViaCLI holds the CLI to byte for byte.
	want, err := os.ReadFile("../medea-scenarios/testdata/fig8-quick.csv.golden")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	stdout, w := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0"}, w)
		w.Close()
		done <- err
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
	if err != nil || !ok {
		t.Fatalf("first stdout line %q, %v; run: %v", line, err, <-done)
	}
	c := serve.NewClient("http://"+addr, nil)

	// runOnce submits fig8-quick, waits for it and fetches its bytes.
	runOnce := func(t *testing.T) (serve.JobStatus, string) {
		t.Helper()
		wctx, cancel := context.WithTimeout(t.Context(), 5*time.Minute)
		defer cancel()
		st, err := c.Submit(wctx, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(wctx, st.ID); err != nil || st.State != serve.StateDone {
			t.Fatalf("job %s ended %s (%q), %v", st.ID, st.State, st.Error, err)
		}
		out, err := c.Result(wctx, st.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		return st, out
	}

	var first serve.JobStatus
	t.Run("served bytes equal the CLI's", func(t *testing.T) {
		var out string
		first, out = runOnce(t)
		if out != string(want) {
			t.Errorf("served fig8-quick differs from medea-scenarios':\n--- served ---\n%s--- CLI ---\n%s", out, want)
		}
	})
	t.Run("resubmission is a cache hit with an equal root", func(t *testing.T) {
		second, out := runOnce(t)
		if c := second.Cache; c == nil || c.Hits != uint64(second.Points) || c.Computes != 0 {
			t.Errorf("resubmission cache counters %+v for %d points, want every point a hit", c, second.Points)
		}
		if second.MerkleRoot == "" || second.MerkleRoot != first.MerkleRoot {
			t.Errorf("merkle root %q on resubmission, %q first", second.MerkleRoot, first.MerkleRoot)
		}
		if out != string(want) {
			t.Error("resubmission rendered different bytes")
		}
	})
	t.Run("cancel drains and run returns nil", func(t *testing.T) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run after cancel: %v", err)
			}
		case <-time.After(time.Minute):
			t.Fatal("run did not return within a minute of cancel")
		}
	})
}
