package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// A workload is one seeded set of inputs the benchmark pushes through the
// program. Three are batches (one scenario run through the path
// cmd/medea-scenarios uses); serve-mixed is a closed loop of HTTP clients
// against the handler cmd/medea-serve mounts.
type workload interface {
	name() string
	// setup brings the workload to the state measuring starts from:
	// reference checks done and one warm-up pass run. Calling it again
	// discards that state and builds it anew, which is how setup_s gets
	// more than one sample.
	setup(ctx context.Context) error
	// round runs one pass; r numbers the passes since setup from 1.
	round(ctx context.Context, r int) roundResult
	// close releases what setup started and makes the end-of-run checks.
	close(ctx context.Context) error
	// resultRoot identifies the simulated results: equal roots across
	// commits mean a change moved host time only.
	resultRoot() string
	// refCycles is what the direct reference measurements of setup
	// simulated, split into cycles ticked and cycles fast-forwarded over.
	refCycles() (ticked, skipped int64)
}

// roundResult is one pass. A request is whatever a user hands the system
// in one go: the whole sweep for a batch, one job for serve-mixed.
type roundResult struct {
	dur       time.Duration
	points    int // sweep points whose results came back
	attempted int // points (batch) or jobs (serve-mixed)
	failed    int
	missMS    []float64 // latency of each request that had to simulate
	hitMS     []float64 // latency of each request served from the cache
	polls     int       // status requests the clients made (serve-mixed)
	errs      []string
}

// batch is a workload that is one scenario, run over and over with the
// result cache off.
type batch struct {
	nm    string
	input []byte
	tr    *tracer
	// refs measures the workload's reference points directly, checks them
	// against the scenario's own rows, and checks that the workload still
	// stresses what it exists to stress.
	refs func(ctx context.Context, rows []scenario.Result) (ticked, skipped int64, err error)

	points          int
	root            string
	ticked, skipped int64
}

func (b *batch) name() string                       { return b.nm }
func (b *batch) resultRoot() string                 { return b.root }
func (b *batch) refCycles() (ticked, skipped int64) { return b.ticked, b.skipped }
func (b *batch) close(context.Context) error        { return nil }

type passOut struct {
	rows []scenario.Result
	csv  string
	root string
	dur  time.Duration
}

// pass is the path cmd/medea-scenarios takes from bytes to bytes.
func (b *batch) pass(ctx context.Context, group string) (passOut, error) {
	var out passOut
	t0 := time.Now()
	top := b.tr.start(noSpan, group, "pass")
	defer func() { b.tr.end(top) }()

	id := b.tr.start(top, group, "scenario.Parse")
	s, err := scenario.Parse(b.input)
	b.tr.end(id)
	if err != nil {
		return out, err
	}
	id = b.tr.start(top, group, "scenario.RunCtx")
	out.rows, err = scenario.RunCtx(ctx, s)
	b.tr.end(id)
	if err != nil {
		return out, err
	}
	id = b.tr.start(top, group, "scenario.Render")
	out.csv, err = scenario.Render(out.rows, scenario.FormatCSV)
	b.tr.end(id)
	if err != nil {
		return out, err
	}
	id = b.tr.start(top, group, "scenario.MerkleRoot")
	out.root = scenario.MerkleRoot(out.rows)
	b.tr.end(id)
	out.dur = time.Since(t0)
	return out, nil
}

func (b *batch) setup(ctx context.Context) error {
	warm, err := b.pass(ctx, b.nm+"/warm-up")
	if err != nil {
		return fmt.Errorf("%s: warm-up pass: %w", b.nm, err)
	}
	b.points, b.root = len(warm.rows), warm.root
	b.ticked, b.skipped, err = b.refs(ctx, warm.rows)
	if err != nil {
		return fmt.Errorf("%s: %w", b.nm, err)
	}
	return nil
}

func (b *batch) round(ctx context.Context, r int) roundResult {
	res := roundResult{attempted: b.points}
	out, err := b.pass(ctx, fmt.Sprintf("%s/pass-%d", b.nm, r))
	switch {
	case err != nil:
		res.failed = b.points
		res.errs = append(res.errs, err.Error())
	case out.root != b.root:
		res.failed = b.points
		res.errs = append(res.errs, fmt.Sprintf("pass %d root %s differs from the warm-up pass's %s", r, out.root, b.root))
	default:
		res.points = len(out.rows)
		res.dur = out.dur
		res.missMS = []float64{ms(out.dur)}
	}
	return res
}
