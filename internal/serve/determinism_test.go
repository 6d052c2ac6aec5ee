package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestServePathMatchesCLIByteForByte pins the determinism contract of the
// daemon: for the shipped example scenarios, the bytes a client fetches
// from /v1/jobs/{id}/result are identical to what cmd/medea-scenarios
// prints for the same file. Both sides run scenario.RunCtx and render
// through scenario.Render, and the simulations themselves are seeded and
// deterministic, so any divergence is a real regression in the serve
// path (result caching, rendering, or state handling). The job's Merkle
// root must equal the CLI run's too.
//
// The scenario files used here are already golden-pinned against the
// hand-coded dse sweeps by internal/scenario's golden tests, which closes
// the chain: paper tables == CLI output == served output.
func TestServePathMatchesCLIByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations; skipped with -short")
	}
	files := []string{
		"fig8-quick.json",
		"router-ablation.json",
		"kernel-ablation.json",
	}

	s := New(Config{Workers: 2, QueueDepth: len(files)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c, _ := serveHTTP(t, s)

	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "scenarios", name)

			// Reference: the CLI path, in-process.
			sc, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			results, err := scenario.RunCtx(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scenario.Render(results, sc.Output)
			if err != nil {
				t.Fatal(err)
			}

			// Served: the same file over HTTP, default format (which must
			// resolve to the scenario's own "output" setting, like the CLI).
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(t.Context(), 5*time.Minute)
			defer cancel()
			st, err := c.Submit(ctx, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
				t.Fatalf("job %s ended %s (%q), %v", st.ID, st.State, st.Error, err)
			}
			got, err := c.Result(ctx, st.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			// The timeline is status only: the run ledger root is the CLI's.
			if root := scenario.MerkleRoot(results); st.MerkleRoot != root {
				t.Errorf("served merkle root %s, CLI %s", st.MerkleRoot, root)
			}
			if string(got) != want {
				t.Errorf("served output differs from CLI output for %s:\nserved %d bytes, CLI %d bytes\nserved:\n%s\nCLI:\n%s",
					name, len(got), len(want), got, want)
			}
		})
	}
}
