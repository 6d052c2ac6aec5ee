package main

import (
	"context"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shard"
)

// TestShardedCLIMatchesSingleProcess: -shards N over an HTTP worker
// through the full CLI must produce byte-identical stdout to the
// single-process run.
func TestShardedCLIMatchesSingleProcess(t *testing.T) {
	srv := httptest.NewServer(shard.Handler(nil))
	defer srv.Close()
	var direct strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "../../examples/scenarios/smoke.json"}, &direct); err != nil {
		t.Fatal(err)
	}
	var sharded strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "-shards", "3", "-worker-url", srv.URL, "../../examples/scenarios/smoke.json"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != direct.String() {
		t.Errorf("sharded CSV diverges:\n--- sharded ---\n%s--- direct ---\n%s", sharded.String(), direct.String())
	}
}

// TestShardedFigureMatchesGolden: a figure format renders a sharded run
// byte for byte as the unsharded run pinned by scenario.TestFigsGolden.
// K-1 prints the kernel counters of jacobi rows, which only the figure
// formats show, so they must survive the trip over the wire.
func TestShardedFigureMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel ablation")
	}
	srv := httptest.NewServer(shard.Handler(nil))
	defer srv.Close()
	want, err := os.ReadFile("../../internal/scenario/testdata/figures/fig-kernel.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sharded strings.Builder
	if err := run(context.Background(), []string{"-format", "kernel", "-shards", "3", "-worker-url", srv.URL, "../../examples/scenarios/kernel-ablation.json"}, &sharded); err != nil {
		t.Fatal(err)
	}
	// The golden ends in the blank line its recording command printed
	// after each figure.
	if sharded.String()+"\n" != string(want) {
		t.Errorf("sharded K-1 diverges from the golden:\n--- sharded ---\n%s--- golden ---\n%s", sharded.String(), want)
	}
}

func TestShardFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "-1", "../../examples/scenarios/smoke.json"}, "-shards must be >= 0"},
		// The address cannot be listened on, so a run that accepted the
		// pair would fail with another message.
		{[]string{"-worker-listen", "no port", "-parallelism", "2"}, "-parallelism does not apply to -worker-listen"},
	} {
		var out strings.Builder
		err := run(context.Background(), c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q = %v, want a usage error %q", c.args, err, c.want)
		}
	}
}

// TestWorkerURLValidation: every -worker-url entry must be an absolute
// http or https URL with a host. A bad entry is a usage error naming it,
// raised before any shard is tried, not a failure on every retry.
func TestWorkerURLValidation(t *testing.T) {
	cases := []struct {
		list    string
		want    []string
		wantBad string
	}{
		{"http://host1:9000,https://host2:9000", []string{"http://host1:9000", "https://host2:9000"}, ""},
		{"http://host1:9000,,http://host2:9000", nil, `""`},
		{"http://host1:9000,", nil, `""`},
		{"127.0.0.1:9000", nil, `"127.0.0.1:9000"`},
		{"host1:9000", nil, `"host1:9000"`},
		{"ftp://host1:9000", nil, `"ftp://host1:9000"`},
		{"http://", nil, `"http://"`},
		{"/worker", nil, `"/worker"`},
	}
	for _, c := range cases {
		got, err := parseWorkerURLs(c.list)
		switch {
		case c.wantBad == "" && (err != nil || !reflect.DeepEqual(got, c.want)):
			t.Errorf("%q = %q, %v; want %q", c.list, got, err, c.want)
		case c.wantBad != "" && (err == nil || !strings.Contains(err.Error(), "-worker-url entry "+c.wantBad)):
			t.Errorf("%q = %v, want a usage error naming %s", c.list, err, c.wantBad)
		}
	}
	// Through the CLI the error comes before any shard runs: no worker
	// listens here, yet the message is the usage error, not a retry.
	var out strings.Builder
	err := run(context.Background(), []string{"-shards", "2", "-worker-url", "127.0.0.1:1", "../../examples/scenarios/smoke.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), `-worker-url entry "127.0.0.1:1"`) {
		t.Errorf("scheme-less -worker-url = %v, want a usage error naming the entry", err)
	}
}
