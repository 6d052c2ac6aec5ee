package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// serveMixed is the daemon workload: the handler cmd/medea-serve mounts,
// in process behind a loopback listener, driven by a closed loop of two
// clients. Closed, because the daemon's callers (CI scripts, sweep
// drivers) wait for their reply before sending the next job; with two
// clients on two workers the queue never fills, and the 429 path is
// probed on its own (serve.burst_rejected). Each client submits a job,
// polls its status every millisecond and fetches the CSV. 30 % of a
// round's jobs re-submit a pre-warmed scenario and are served from the
// result cache while the other 70 % compute and store: reads beside
// writes. 30 and not 50, so that a median over all jobs would not sit on
// the boundary between the two.
type serveMixed struct {
	in *inputs
	tr *tracer

	cache      *resultcache.Cache
	srv        *serve.Server
	ts         *httptest.Server
	popularCSV []string
	root       string
	ticked     int64
	skipped    int64

	serial   atomic.Int64 // names every job of the run differently
	jobSpans sync.Map     // job name -> its root span, for the server-side span
}

const (
	serveClients = 2
	pollEvery    = time.Millisecond
)

// jobRecord is what a client saw of one job.
type jobRecord struct {
	hit                        bool
	err                        string
	total, submit, wait, fetch time.Duration
	polls                      int
	csv                        string
}

func (w *serveMixed) name() string                       { return "serve-mixed" }
func (w *serveMixed) resultRoot() string                 { return w.root }
func (w *serveMixed) refCycles() (ticked, skipped int64) { return w.ticked, w.skipped }

func (w *serveMixed) setup(ctx context.Context) error {
	if err := w.close(ctx); err != nil {
		return err
	}
	var err error
	if w.cache, err = resultcache.Open("mem", "", 0); err != nil {
		return err
	}
	cfg := serve.Config{Workers: 2, QueueDepth: 16, Cache: w.cache}
	if w.tr != nil {
		// The traced run wraps the default runner to see when the
		// daemon starts and ends a job; the untraced run leaves the
		// configuration exactly as cmd/medea-serve builds it.
		cfg.Runner = func(ctx context.Context, s *scenario.Scenario) ([]scenario.Result, error) {
			parent := noSpan
			if v, ok := w.jobSpans.Load(s.Name); ok {
				parent = v.(int)
			}
			id := w.tr.start(parent, s.Name, "serve.run")
			defer w.tr.end(id)
			return scenario.RunCtx(ctx, s)
		}
	}
	w.srv = serve.New(cfg)
	w.ts = httptest.NewServer(w.srv.Handler())

	// The popular scenarios: computed directly for the bytes a hit must
	// serve, then submitted once so the daemon's cache holds them.
	w.popularCSV = make([]string, w.in.sz.servePopular)
	var all []scenario.Result
	for k := range w.popularCSV {
		// Submitted as a miss: this first run is the one that computes.
		spec := jobSpec{popular: -1, trafficSeed: w.in.popularSeed + int64(k)}
		rows, csv, err := direct(ctx, w.in.job("direct", spec.trafficSeed))
		if err != nil {
			return err
		}
		w.popularCSV[k] = csv
		all = append(all, rows...)
		if rec := w.runJob(ctx, spec); rec.err != "" || rec.csv != csv {
			return fmt.Errorf("serve-mixed: pre-warming popular scenario %d: served bytes differ from a direct render (%s)", k, rec.err)
		}
	}
	w.root = scenario.MerkleRoot(all)
	w.ticked, w.skipped, err = nocRefs(ctx, all[:jobPoints], jobRouters, jobPatterns, []float64{jobRate},
		w.in.sz.jobWarmup, w.in.sz.jobMeasure, w.in.popularSeed)
	if err != nil {
		return fmt.Errorf("serve-mixed: %w", err)
	}
	if warm := w.round(ctx, 0); warm.failed > 0 {
		return fmt.Errorf("serve-mixed: warm-up round: %d of %d jobs failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return nil
}

// direct is what the daemon must reproduce byte for byte: the scenario
// path with no cache and no HTTP in between.
func direct(ctx context.Context, body []byte) ([]scenario.Result, string, error) {
	s, err := scenario.Parse(body)
	if err != nil {
		return nil, "", err
	}
	rows, err := scenario.RunCtx(ctx, s)
	if err != nil {
		return nil, "", err
	}
	csv, err := scenario.Render(rows, scenario.FormatCSV)
	return rows, csv, err
}

func (w *serveMixed) round(ctx context.Context, r int) roundResult {
	specs := w.in.round(r)
	recs := make([]jobRecord, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				recs[i] = w.runJob(ctx, specs[i])
			}
		}()
	}
	wg.Wait()
	res := roundResult{dur: time.Since(t0), attempted: len(specs)}

	// Served bytes against direct ones: every hit against its popular
	// scenario's, and the round's first miss against a fresh direct run.
	missChecked := false
	for i := range recs {
		rec := &recs[i]
		res.polls += rec.polls
		if rec.err == "" && rec.hit && rec.csv != w.popularCSV[specs[i].popular] {
			rec.err = "served bytes of a hit differ from the direct render"
		}
		if rec.err == "" && !rec.hit && !missChecked {
			missChecked = true
			if _, csv, err := direct(ctx, w.in.job("direct", specs[i].trafficSeed)); err != nil || csv != rec.csv {
				rec.err = fmt.Sprintf("served bytes of a miss differ from the direct render (%v)", err)
			}
		}
		switch {
		case rec.err != "":
			res.failed++
			res.errs = append(res.errs, rec.err)
		case rec.hit:
			res.points += jobPoints
			res.hitMS = append(res.hitMS, ms(rec.total))
		default:
			res.points += jobPoints
			res.missMS = append(res.missMS, ms(rec.total))
		}
	}
	return res
}

// runJob is one client's submit -> poll -> fetch, timed from the moment
// the POST leaves to the moment the result bytes are in hand.
func (w *serveMixed) runJob(ctx context.Context, spec jobSpec) jobRecord {
	rec := jobRecord{hit: spec.hit()}
	name := fmt.Sprintf("job-%d", w.serial.Add(1))
	body := w.in.job(name, spec.trafficSeed)
	tag := "miss"
	if rec.hit {
		tag = "hit"
	}
	top := w.tr.start(noSpan, name, "job")
	if top != noSpan {
		w.jobSpans.Store(name, top)
	}
	defer func() { w.tr.endTagged(top, tag) }()
	fail := func(format string, args ...any) jobRecord {
		rec.err = name + ": " + fmt.Sprintf(format, args...)
		return rec
	}

	var st struct {
		ID    string             `json:"id"`
		State serve.State        `json:"state"`
		Error string             `json:"error"`
		Cache *resultcache.Stats `json:"cache"`
	}
	t0 := time.Now()
	id := w.tr.start(top, name, "submit")
	code, reply, err := w.call(ctx, http.MethodPost, "/v1/jobs", body)
	w.tr.endTagged(id, tag)
	if err != nil || code != http.StatusAccepted {
		return fail("submit: status %d, %v", code, err)
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		return fail("submit reply: %v", err)
	}
	rec.submit = time.Since(t0)

	t1 := time.Now()
	id = w.tr.start(top, name, "wait")
	for {
		rec.polls++
		code, reply, err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err != nil || code != http.StatusOK {
			w.tr.endTagged(id, tag)
			return fail("status: status %d, %v", code, err)
		}
		if err := json.Unmarshal(reply, &st); err != nil {
			w.tr.endTagged(id, tag)
			return fail("status reply: %v", err)
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	w.tr.endTagged(id, tag)
	rec.wait = time.Since(t1)
	if st.State != serve.StateDone {
		return fail("ended %s: %s", st.State, st.Error)
	}
	// The daemon's own account of the job must match what the generator
	// meant it to be: a hit computes nothing, a miss computes every point.
	computes := uint64(jobPoints)
	if rec.hit {
		computes = 0
	}
	if st.Cache == nil || st.Cache.Computes != computes {
		return fail("meant as a %s but the daemon reports cache counters %+v", tag, st.Cache)
	}

	t2 := time.Now()
	id = w.tr.start(top, name, "fetch")
	code, reply, err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result?format=csv", nil)
	w.tr.endTagged(id, tag)
	if err != nil || code != http.StatusOK {
		return fail("result: status %d, %v", code, err)
	}
	rec.fetch = time.Since(t2)
	rec.total = time.Since(t0)
	rec.csv = string(reply)
	return rec
}

func (w *serveMixed) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	return httpCall(ctx, w.ts, method, path, body)
}

// httpCall makes one request to a test server and reads the whole reply.
func httpCall(ctx context.Context, ts *httptest.Server, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// close drains the daemon and checks that every job it accepted ended in
// a terminal state.
func (w *serveMixed) close(ctx context.Context) error {
	if w.srv == nil {
		return nil
	}
	drain, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(drain)
	w.ts.Close()
	for _, st := range w.srv.List() {
		if !st.State.Terminal() && err == nil {
			err = fmt.Errorf("serve-mixed: job %s is still %s after the drain", st.ID, st.State)
		}
	}
	w.srv, w.ts = nil, nil
	return err
}
