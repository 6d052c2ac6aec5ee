package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// detailWaveformSHA256 is the hash of the NoC waveform of
// examples/figures/detail.json, as the one-simulation command that the
// detail format replaced wrote it for the same configuration.
const detailWaveformSHA256 = "0f2340b6cf37a11efae22cc89cde68ba9cbf3f5a720656d2f6e1f1e9dcb64983"

// TestWaveformViaCLI: -vcd writes the recorded waveform byte for byte,
// and the run renders exactly as it does without -vcd.
func TestWaveformViaCLI(t *testing.T) {
	file := filepath.Join("..", "..", "examples", "figures", "detail.json")
	vcdPath := filepath.Join(t.TempDir(), "noc.vcd")
	var traced, plain strings.Builder
	if err := run(context.Background(), []string{"-vcd", vcdPath, file}, &traced); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-cache", "mem", file}, &plain); err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Errorf("-vcd changed the render:\n--- with ---\n%s--- without ---\n%s", traced.String(), plain.String())
	}
	b, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != detailWaveformSHA256 {
		t.Errorf("waveform of %s: sha256 %x, recorded %s", file, sum, detailWaveformSHA256)
	}
}
