package scenario

import (
	"context"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestFig8QuickGolden holds examples/scenarios/fig8-quick.json, the
// Quick-fidelity Figure 8 sweep, to its line of figureFileAxes. Its rows
// are pinned by TestExampleRootsGolden, its CSV by medea-scenarios'
// TestGoldenFig8ViaCLI and its fig8 and fig9 formats by TestFigsGolden.
func TestFig8QuickGolden(t *testing.T) {
	checkFigureAxes(t, "../../examples/scenarios/fig8-quick.json")
}

// TestNoCLoadSweepGolden holds examples/scenarios/noc-load-sweep.json to
// the CSVs of the standalone load-sweep command it replaced, recorded
// with that command's -csv flag (%g fields, which round-trip exactly),
// one subtest each: its default run (torus, deflection) and a cmesh
// wormhole run with the buffered-XY baseline beside it. Every golden figure must equal its
// scenario row bit for bit. The golden deflection count is
// DeflectionRate × Delivered, and the xy_* columns are the xy row at the
// same load. hops is the one column with no scenario equivalent: the
// network still counts it (Network.Stats.Hops), but the noc-synthetic
// columns do not carry it.
func TestNoCLoadSweepGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64: float fusing differs by GOARCH, so the low bits of the latency means do")
	}
	s, err := Load("../../examples/scenarios/noc-load-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		topology, router string
		rate             float64
	}
	rows := make(map[key]Result, len(results))
	for _, r := range results {
		rows[key{r.Topology, r.Router, r.Rate}] = r
	}
	checked := map[key]bool{}
	for _, c := range []struct {
		file string
		xy   bool // recorded with the XY baseline; without it the xy_* columns are zero
	}{
		{"noc-default.csv", false},
		{"noc-cmesh-wormhole-xy.csv", true},
	} {
		t.Run(c.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := csv.NewReader(f).ReadAll()
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", c.file, err)
			}
			head := recs[0]
			for _, rec := range recs[1:] {
				col := make(map[string]string, len(head))
				for i, name := range head {
					col[name] = rec[i]
				}
				rate, err := strconv.ParseFloat(col["load"], 64)
				if err != nil {
					t.Fatalf("%s: load %q: %v", c.file, col["load"], err)
				}
				k := key{col["topology"], col["router"], rate}
				xk := key{col["topology"], "xy", rate}
				r, ok := rows[k]
				if !ok {
					t.Fatalf("%s: no scenario row for %+v", c.file, k)
				}
				checked[k] = true
				xy := rows[xk]
				if c.xy {
					checked[xk] = true
				}
				for _, name := range head {
					if !c.xy && strings.HasPrefix(name, "xy_") {
						continue
					}
					var got float64
					switch name {
					case "load", "topology", "router", "hops":
						continue // the row's key, and the one dropped column
					case "throughput":
						got = r.Throughput
					case "latency":
						got = r.MeanLatency
					case "p99":
						got = r.P99Latency
					case "deflections":
						got = math.Round(r.DeflectionRate * float64(r.Delivered))
					case "peak_buffer":
						got = float64(r.PeakBuffer)
					case "xy_throughput":
						got = xy.Throughput
					case "xy_latency":
						got = xy.MeanLatency
					case "xy_peak_buffer":
						got = float64(xy.PeakBuffer)
					default:
						t.Fatalf("%s: column %q has no scenario equivalent", c.file, name)
					}
					want, err := strconv.ParseFloat(col[name], 64)
					if err != nil {
						t.Fatalf("%s: %s %q: %v", c.file, name, col[name], err)
					}
					if got != want {
						t.Errorf("%s %s/%s at load %g: %s = %v, golden %v", c.file, k.topology, k.router, rate, name, got, want)
					}
				}
			}
		})
	}
	if len(checked) != 21 {
		t.Errorf("%d scenario rows checked against the goldens, want 21", len(checked))
	}
}
