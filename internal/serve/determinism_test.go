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
// prints for the same file, in the file's own format and in the figure
// formats it serves (Fig 9 from fig8-quick, K-1 from kernel-ablation).
// Both sides run scenario.RunCtx and render through Scenario.Render,
// and the simulations themselves are seeded and
// deterministic, so any divergence is a real regression in the serve
// path (result caching, rendering, or state handling). The job's Merkle
// root must equal the CLI run's too.
//
// The scenario files used here are already golden-pinned to the paper's
// tables by internal/scenario's golden tests, which closes the chain:
// paper tables == CLI output == served output.
func TestServePathMatchesCLIByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations; skipped with -short")
	}
	files := []struct {
		name    string
		formats []string // beside the file's own
	}{
		{"fig8-quick.json", []string{"fig9"}},
		{"router-ablation.json", nil},
		{"kernel-ablation.json", []string{"kernel"}},
	}

	s := New(Config{Workers: 2, QueueDepth: len(files)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c, _ := serveHTTP(t, s)

	for _, f := range files {
		name := f.name
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

			// Served: the same file over HTTP.
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
			// The timeline is status only: the run ledger root is the CLI's.
			if root := scenario.MerkleRoot(results); st.MerkleRoot != root {
				t.Errorf("served merkle root %s, CLI %s", st.MerkleRoot, root)
			}
			// "" resolves to the scenario's own "output", like the CLI.
			for _, format := range append([]string{""}, f.formats...) {
				want, err := sc.Render(results, format)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Result(ctx, st.ID, format)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("served output differs from CLI output for %s -format %q:\nserved %d bytes, CLI %d bytes\nserved:\n%s\nCLI:\n%s",
						name, format, len(got), len(want), got, want)
				}
			}
		})
	}
}
