// Command bench is the repository's benchmark: four seeded workloads
// pushed through the program's public entry points, three end-to-end
// metrics measured with tracing off, and about a hundred per-layer
// metrics from a separate traced run. README.md in this directory says
// what every workload and metric is and how they should move together;
// BENCHMARK.json at the repository root declares them to the acceptance
// driver.
//
//	bash bench/run.sh --workload kernel-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1 -spans spans.json -out layers.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/resultcache"
	"repro/internal/shard"
)

const shardWorkerFlag = "-shard-worker"

var workloadNames = []string{"kernel-sweep", "noc-saturated", "noc-idle", "serve-mixed"}

func main() {
	if len(os.Args) == 2 && os.Args[1] == shardWorkerFlag {
		os.Exit(shardWorker())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// shardWorker is the other end of the shard.proc_spawn_ms probe: the
// frame protocol on stdio, as cmd/medea-scenarios -worker serves it.
func shardWorker() int {
	cache := resultcache.New(resultcache.NewMemoryStore(0))
	if err := shard.ServeWorker(context.Background(), os.Stdin, os.Stdout, cache); err != nil {
		return 1
	}
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	out      string
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run one workload alone: "+fmt.Sprint(workloadNames)+" (default: all, interleaved)")
	fs.Int64Var(&o.seed, "seed", 1, "input-generation seed; it decides inputs and nothing else (1 = development, 2 = held back)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to measure each workload")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: one traced pass plus every per-layer probe")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes for tests; the output is stamped invalid")
	fs.StringVar(&o.out, "out", "", "also write the results as JSON to this file")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	list := fs.Bool("list", false, "print every metric's name, unit, direction and bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *list:
		printTables(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	o.traced = trace == 1
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have %v\n", o.workload, workloadNames)
		return 2
	}

	res, err := execute(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		if err := res.write(o.out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if o.workload != "" {
		fmt.Fprintln(stdout, res.contractLine(o.workload))
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// execute sets up, measures and reports; everything but flag handling.
func execute(ctx context.Context, o options, stdout io.Writer) (*results, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	sz := fullSizes
	if o.smoke {
		sz, o.seconds = smokeSizes, 0 // minRounds passes and no more
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Scratch files go beside the binary, which run.sh puts inside the
	// checkout (and go test in a directory of its own).
	tmp := filepath.Join(filepath.Dir(exe), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}

	in := generate(o.seed, sz)
	var tr *tracer
	if o.traced {
		tr = newTracer()
		tr.off.Store(true)
	}
	sm := &serveMixed{in: in, tr: tr}
	byName := map[string]workload{
		"kernel-sweep":  &batch{nm: "kernel-sweep", input: in.kernel, tr: tr, refs: kernelRefs(in)},
		"noc-saturated": &batch{nm: "noc-saturated", input: in.saturated, tr: tr, refs: saturatedRefs(in)},
		"noc-idle":      &batch{nm: "noc-idle", input: in.idle, tr: tr, refs: idleRefs(in)},
		"serve-mixed":   sm,
	}
	var selected []workload
	for _, n := range workloadNames {
		if o.workload == "" || o.workload == n {
			selected = append(selected, byName[n])
		}
	}

	res := newResults(o, procs)
	if o.traced {
		// The serve.* spans and latencies always come from a serve-mixed
		// round, whichever workload the run is for.
		rounds := selected
		if o.workload != "" && o.workload != sm.name() {
			rounds = append(rounds, sm)
		}
		err = tracedRun(ctx, res, rounds, selected, sm, &prober{ctx: ctx, sz: sz, tr: tr, out: res.layers, tmp: tmp, exe: exe})
	} else {
		err = untracedRun(ctx, res, selected, sz, o.seconds)
	}
	for _, w := range byName {
		if cerr := w.close(ctx); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res.PeakRSSMB = peakRSSMB()
	if o.traced {
		res.layers.put("host.calib_ms", summarize(res.HostCalibMS))
		res.layers.put("host.peak_rss_mb", one(res.PeakRSSMB))
		spans := tr.snapshot()
		if err := checkSpans(spans); err != nil {
			return nil, err
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return nil, err
			}
		}
	}
	if err := res.finish(); err != nil {
		return nil, err
	}
	res.print(stdout)
	return res, nil
}

// untracedRun measures the end-to-end metrics: set-up several times over
// for setup_s, then rounds. Round r runs one pass of each workload in
// turn, so a noisy stretch on a shared host lands on a pass or two of
// every workload instead of on one workload's whole run, and each metric
// is the median over rounds. A workload stops once its passes have used
// up the seconds it was given, but never before minRounds.
func untracedRun(ctx context.Context, res *results, selected []workload, sz sizes, seconds float64) error {
	for _, w := range selected {
		wr := res.workload(w.name())
		for i := 0; i < sz.setups; i++ {
			t0 := time.Now()
			if err := w.setup(ctx); err != nil {
				return err
			}
			wr.setupS = append(wr.setupS, time.Since(t0).Seconds())
		}
		wr.ResultRoot = w.resultRoot()
	}
	for r := 1; ; r++ {
		ran := false
		for _, w := range selected {
			wr := res.workload(w.name())
			if len(wr.rounds) >= sz.minRounds && wr.spent+wr.medianRound() > seconds {
				continue
			}
			if !ran {
				res.HostCalibMS = append(res.HostCalibMS, calibrate(sz.calibrateMiB))
				ran = true
			}
			wr.add(w.round(ctx, r))
		}
		if !ran {
			return nil
		}
	}
}

// tracedRun gives the per-layer metrics: for each workload one pass with
// span recording off and one with it on (their ratio is the tracing
// overhead), then every probe.
func tracedRun(ctx context.Context, res *results, rounds, selected []workload, sm *serveMixed, p *prober) error {
	for _, w := range rounds {
		if err := w.setup(ctx); err != nil {
			return err
		}
		res.HostCalibMS = append(res.HostCalibMS, calibrate(p.sz.calibrateMiB))
		heap0 := heapAfterGC()
		cache0 := sm.cache.Stats() // zero while serve-mixed is not set up
		plain := w.round(ctx, 1)
		p.tr.off.Store(false)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		traced := w.round(ctx, 2)
		runtime.ReadMemStats(&m1)
		p.tr.off.Store(true)
		retained := heapAfterGC() - heap0

		if w == workload(sm) {
			serveLayers(res.layers, p.tr.snapshot(), []roundResult{plain, traced}, retained, cache0, sm.cache.Stats())
		}
		if !slices.Contains(selected, w) {
			continue
		}
		wr := res.workload(w.name())
		wr.ResultRoot = w.resultRoot()
		wr.add(plain)
		wr.add(traced)
		ticked, skipped := w.refCycles()
		wr.layers.put("sim.cycles_ticked", one(float64(ticked)))
		wr.layers.put("sim.cycles_skipped", one(float64(skipped)))
		wr.layers.put("sim.skipped_ratio", one(float64(skipped)/float64(ticked+skipped)))
		wr.layers.put("scenario.alloc_mb_per_pass", one(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6))
		wr.layers.put("retained_heap_mb", one(retained/1e6))
		wr.layers.put("trace_overhead_ratio", one(traced.dur.Seconds()/plain.dur.Seconds()))
	}
	p.tr.off.Store(false)
	res.HostCalibMS = append(res.HostCalibMS, calibrate(p.sz.calibrateMiB))
	err := p.all()
	res.HostCalibMS = append(res.HostCalibMS, calibrate(p.sz.calibrateMiB))
	return err
}

// heapAfterGC is the live heap in bytes once garbage is gone.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// calibrate times a fixed SHA-256 spin in ms. It shows host-wide drift
// between rounds and runs; nothing is ever normalised by it.
func calibrate(mib int) float64 {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	t0 := time.Now()
	for i := 0; i < mib; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return ms(time.Since(t0))
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
