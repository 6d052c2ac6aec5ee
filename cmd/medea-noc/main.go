// Command medea-noc characterizes the bare network-on-chip: it sweeps the
// offered load for a chosen traffic pattern, router and topology and
// prints latency, throughput, deflection and buffer statistics;
// optionally the buffered XY baseline runs alongside for a direct
// comparison. Output can be emitted as CSV for plotting. For
// multi-pattern, multi-router, multi-topology or multi-seed sweeps use
// cmd/medea-scenarios with a scenario file instead.
//
// Example:
//
//	medea-noc -w 4 -h 4 -pattern transpose -xy -csv transpose.csv
//	medea-noc -router wormhole -pattern tornado -burst-on 25 -burst-off 75
//	medea-noc -router adaptive -loads 0.1,0.3,0.5
//	medea-noc -topo mesh -pattern uniform
//	medea-noc -topo cmesh -w 8 -h 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/noc"
	"repro/internal/trace"
)

// errUsage signals that the flag package already reported the problem and
// printed usage; main must not log it a second time.
var errUsage = errors.New("medea-noc: bad arguments")

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-noc: ")
	// Ctrl-C / SIGTERM stop the sweep within a few thousand simulated
	// cycles.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := run(ctx, os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, context.Canceled):
		log.Fatal("interrupted")
	default:
		log.Fatal(err)
	}
}

// run executes the CLI against args, writing the result table to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medea-noc", flag.ContinueOnError)
	w := fs.Int("w", 4, "endpoint grid width (>= 2; cmesh needs even and >= 4)")
	h := fs.Int("h", 4, "endpoint grid height (>= 2; cmesh needs even and >= 4)")
	pattern := fs.String("pattern", "uniform",
		"traffic pattern, by name or index: "+strings.Join(noc.PatternNames(), " | "))
	router := fs.String("router", "deflection",
		"router algorithm, by name or index: "+strings.Join(noc.RouterNames(), " | "))
	topoFlag := fs.String("topo", "torus",
		"topology, by name or index: "+strings.Join(noc.TopologyNames(), " | "))
	hotspot := fs.Int("hotspot", 0, "hotspot destination node (hotspot pattern only)")
	cycles := fs.Int64("cycles", 5000, "simulated cycles per load point")
	seed := fs.Int64("seed", 1, "traffic RNG seed (runs are deterministic per seed)")
	burstOn := fs.Float64("burst-on", 0, "mean burst length in cycles for on/off modulated sources (0 = steady injection)")
	burstOff := fs.Float64("burst-off", 0, "mean gap length in cycles between bursts (set with -burst-on)")
	withXY := fs.Bool("xy", false, "also run the buffered XY dimension-order baseline")
	csvPath := fs.String("csv", "", "write results as CSV to this file")
	record := fs.String("record", "", "record every injection to this trace file (single load, no -xy; replay with the scenario runner's trace workload)")
	loads := fs.String("loads", "0.05,0.1,0.2,0.3,0.4,0.5,0.6", "comma-separated offered loads (flits/node/cycle, each in (0, 1])")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: medea-noc [flags]\n\nSweeps offered load for one synthetic traffic pattern and router on a\nWxH fabric (folded torus, mesh or concentrated mesh) and reports\nlatency, throughput, deflection and buffer statistics.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -help: usage already printed, exit clean
		}
		return errUsage // parse error: flag already printed error + usage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	// Topology and size validate together: the kind constrains the legal
	// grids (mesh rejects 1xN lines, cmesh rejects grids not divisible by
	// its 2x2 concentration tile), so a bad -topo/-w/-h combination is a
	// usage error before any cycle is simulated.
	tk, err := noc.ParseTopology(*topoFlag)
	if err != nil {
		return err
	}
	topo, err := noc.NewTopologyOfKind(tk, *w, *h)
	if err != nil {
		return err
	}
	pat, err := noc.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	if err := noc.ValidatePattern(pat, topo); err != nil {
		return err
	}
	kind, err := noc.ParseRouter(*router)
	if err != nil {
		return err
	}
	if *hotspot < 0 || *hotspot >= topo.NumEndpoints() {
		return fmt.Errorf("hotspot node %d outside the %dx%d endpoint grid (0..%d)",
			*hotspot, *w, *h, topo.NumEndpoints()-1)
	}
	if *cycles <= 0 {
		return fmt.Errorf("-cycles must be > 0, got %d", *cycles)
	}
	var burst *noc.BurstConfig
	if *burstOn != 0 || *burstOff != 0 {
		burst = &noc.BurstConfig{MeanOn: *burstOn, MeanOff: *burstOff}
		if err := burst.Validate(); err != nil {
			return err
		}
	}
	rates, err := parseLoads(*loads)
	if err != nil {
		return err
	}

	// A trace captures exactly one run, so recording constrains the sweep
	// to a single load point and a single router.
	var tr *trace.Trace
	if *record != "" {
		if len(rates) != 1 {
			return fmt.Errorf("-record captures a single run: -loads lists %d loads, want exactly one", len(rates))
		}
		if *withXY {
			return fmt.Errorf("-record captures a single router's run: drop -xy and record the XY baseline separately with -router xy")
		}
		tr = trace.New(trace.Header{
			Width: *w, Height: *h,
			Topology: tk.String(), Router: kind.String(),
			Pattern: pat.String(), Rate: rates[0], Seed: *seed,
			Bursty:  burst != nil,
			Measure: *cycles,
		})
	}

	var rows []row
	for _, rate := range rates {
		cfg := trafficCfg(pat, *hotspot, rate, burst)
		if tr != nil {
			cfg.Record = tr
		}
		r, err := measureRouter(ctx, topo, kind, cfg, *cycles, *seed)
		if err != nil {
			return err
		}
		if *withXY {
			x, err := measureRouter(ctx, topo, noc.RouterXY, trafficCfg(pat, *hotspot, rate, burst), *cycles, *seed)
			if err != nil {
				return err
			}
			r.xyLatency, r.xyPeakBuf, r.xyThroughput = x.latency, x.peakBuf, x.throughput
			r.hasXY = true
		}
		rows = append(rows, r)
	}

	if tr != nil {
		if err := tr.Save(*record); err != nil {
			return err
		}
		log.Printf("recorded %d injection events to %s (sha256 %s)", len(tr.Events), *record, tr.Hash())
	}

	var b strings.Builder
	desc := pat.String()
	if burst != nil {
		desc = fmt.Sprintf("bursty %s (on %g / off %g)", pat, burst.MeanOn, burst.MeanOff)
	}
	fmt.Fprintf(&b, "%dx%d %s, %s traffic, %s router, %d cycles/point\n", *w, *h, topoDesc(topo), desc, kind, *cycles)
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	head := "load\tthroughput\tlatency\tp99\thops\tdeflections\tpeak-buf\t"
	if *withXY {
		head += "xy-throughput\txy-latency\txy-peak-buf\t"
	}
	fmt.Fprintln(tw, head)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.1f\t%.0f\t%.1f\t%d\t%d\t",
			r.load, r.throughput, r.latency, r.p99, r.hops, r.deflections, r.peakBuf)
		if r.hasXY {
			fmt.Fprintf(tw, "%.3f\t%.1f\t%d\t", r.xyThroughput, r.xyLatency, r.xyPeakBuf)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprint(stdout, b.String())

	if *csvPath != "" {
		var c strings.Builder
		c.WriteString("load,router,topology,throughput,latency,p99,hops,deflections,peak_buffer,xy_throughput,xy_latency,xy_peak_buffer\n")
		for _, r := range rows {
			fmt.Fprintf(&c, "%g,%s,%s,%g,%g,%g,%g,%d,%d,%g,%g,%d\n",
				r.load, kind, tk, r.throughput, r.latency, r.p99, r.hops, r.deflections,
				r.peakBuf, r.xyThroughput, r.xyLatency, r.xyPeakBuf)
		}
		if err := os.WriteFile(*csvPath, []byte(c.String()), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", *csvPath)
	}
	return nil
}

// parseLoads parses and validates the -loads flag: every offered load must
// be a clean float in (0, 1] (a rate is a per-node injection probability;
// negative or >1 rates used to be accepted silently and simulate garbage).
func parseLoads(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q in -loads: %v", part, err)
		}
		if !(r > 0 && r <= 1) { // written positively: ParseFloat accepts "NaN"
			return nil, fmt.Errorf("load %g in -loads outside (0, 1]: an offered load is a per-node injection probability per cycle", r)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-loads must list at least one offered load in (0, 1]")
	}
	return rates, nil
}

type row struct {
	load         float64
	throughput   float64 // delivered flits/node/cycle
	latency      float64
	p99          float64
	hops         float64
	deflections  int64
	peakBuf      int
	hasXY        bool
	xyThroughput float64
	xyLatency    float64
	xyPeakBuf    int
}

func trafficCfg(pat noc.Pattern, hot int, rate float64, burst *noc.BurstConfig) noc.TrafficConfig {
	return noc.TrafficConfig{Pattern: pat, Rate: rate, HotspotNode: hot, Burst: burst}
}

// topoDesc names the fabric in the table header, keeping the paper's
// "folded torus" phrasing for the default.
func topoDesc(topo noc.Topology) string {
	switch topo.Kind() {
	case noc.TopoTorus:
		return "folded torus"
	case noc.TopoCMesh:
		w, h := topo.Dims()
		return fmt.Sprintf("cmesh (%dx%d switches)", w, h)
	}
	return topo.Kind().String()
}

func measureRouter(ctx context.Context, topo noc.Topology, kind noc.RouterKind, cfg noc.TrafficConfig, cycles, seed int64) (row, error) {
	m, err := noc.MeasureCtx(ctx, topo, noc.MeasureConfig{
		Router: kind, Traffic: cfg, Measure: cycles, Seed: seed,
	})
	if err != nil {
		return row{}, err
	}
	return row{
		load:        cfg.Rate,
		throughput:  m.Throughput,
		latency:     m.MeanLatency,
		p99:         m.P99Latency,
		hops:        m.MeanHops,
		deflections: m.Deflections,
		peakBuf:     m.PeakBuffer,
	}, nil
}
