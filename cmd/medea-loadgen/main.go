// Command medea-loadgen drives a running medea-serve daemon: it submits
// scenario jobs closed-loop (a fixed worker pool, each waiting for its
// job to finish before submitting the next) or open-loop (a fixed
// submission rate regardless of completions), measures submit-to-terminal
// latency, and counts every response class — including the 429
// backpressure rejections the daemon's bounded queue is supposed to emit
// under overload.
//
// With -chaos it mixes hostile traffic into the stream — malformed JSON,
// oversized bodies, mid-flight client disconnects — to exercise the
// daemon's input hardening; the final health check fails the run if the
// daemon stopped serving.
//
// With -once it submits a single job, waits for it, and prints the
// rendered result to stdout. CI uses this to assert the serve path is
// byte-identical to cmd/medea-scenarios for the same scenario file.
//
// Examples:
//
//	medea-loadgen -addr 127.0.0.1:8080 -scenario examples/scenarios/smoke.json -n 20 -concurrency 4
//	medea-loadgen -addr 127.0.0.1:8080 -scenario examples/scenarios/smoke.json -rate 50 -n 200 -chaos
//	medea-loadgen -addr 127.0.0.1:8080 -scenario examples/scenarios/fig8-quick.json -once -format table
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-loadgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medea-loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "medea-serve address (host:port)")
	scenarioPath := fs.String("scenario", "", "scenario JSON file to submit (required)")
	n := fs.Int("n", 20, "total submissions")
	concurrency := fs.Int("concurrency", 4, "closed-loop workers (ignored when -rate is set)")
	rate := fs.Float64("rate", 0, "open-loop submissions per second (0 = closed loop)")
	chaos := fs.Bool("chaos", false, "mix in malformed JSON, oversized bodies and mid-flight disconnects")
	seed := fs.Int64("seed", 1, "chaos mix seed (deterministic per seed)")
	once := fs.Bool("once", false, "submit one job, wait, print its rendered result to stdout")
	format := fs.String("format", "", "-once result format: table | csv | json (default: the scenario's own)")
	jobWait := fs.Duration("job-wait", 10*time.Minute, "how long to wait for any one job to reach a terminal state")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: medea-loadgen -scenario file.json [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Load-generates against a medea-serve daemon (closed or open loop,\n")
		fmt.Fprintf(fs.Output(), "optional chaos traffic), or with -once runs one job end to end.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// -concurrency 0 runs one worker and -rate 0 a closed loop; a negative
	// or non-finite value is a usage error, not another way to say 0.
	if *concurrency < 0 {
		return fmt.Errorf("-concurrency must be >= 0, got %d", *concurrency)
	}
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		return fmt.Errorf("-rate must be a finite number >= 0, got %v", *rate)
	}
	if *jobWait < 0 {
		return fmt.Errorf("-job-wait must be >= 0, got %v", *jobWait)
	}
	if *scenarioPath == "" {
		fs.Usage()
		return fmt.Errorf("-scenario is required")
	}
	body, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return err
	}
	c := &client{
		base:    "http://" + *addr,
		hc:      &http.Client{Timeout: 30 * time.Second},
		jobWait: *jobWait,
	}

	if *once {
		return runOnce(c, body, *format, stdout)
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive")
	}

	m := &metrics{}
	start := time.Now()
	if *rate > 0 {
		openLoop(c, body, *n, *rate, *chaos, *seed, m)
	} else {
		closedLoop(c, body, *n, max(1, *concurrency), *chaos, *seed, m)
	}
	elapsed := time.Since(start)

	if err := c.health(); err != nil {
		return fmt.Errorf("daemon unhealthy after load: %w", err)
	}
	m.report(stdout, elapsed)
	return nil
}

// runOnce submits the scenario, waits for the job, and prints the
// rendered result — the serve-path equivalent of one medea-scenarios
// invocation. The daemon's cache report for the job (hit counts, Merkle
// ledger root) goes to stderr, so scripts can assert hit-on-resubmit
// while stdout stays byte-identical to the CLI's rendering.
func runOnce(c *client, body []byte, format string, stdout io.Writer) error {
	id, code, err := c.submit(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit rejected with status %d", code)
	}
	state, err := c.waitTerminal(id)
	if err != nil {
		return err
	}
	if state != "done" {
		st, _ := c.statusBody(id)
		return fmt.Errorf("job %s ended %s: %s", id, state, st)
	}
	if st, err := c.status(id); err == nil {
		if st.Cache != nil {
			hit := "cache-hit=false"
			if st.Cache.Hits > 0 && st.Cache.Computes == 0 {
				hit = "cache-hit=true"
			}
			log.Printf("job %s: %s hits=%d misses=%d computes=%d", id, hit, st.Cache.Hits, st.Cache.Misses, st.Cache.Computes)
		}
		if st.MerkleRoot != "" {
			log.Printf("job %s: merkle-root=%s", id, st.MerkleRoot)
		}
	}
	out, err := c.result(id, format)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, out)
	return err
}

// closedLoop runs workers that each submit, wait for the job to finish,
// and repeat, until n submissions have been made in total.
func closedLoop(c *client, body []byte, n, workers int, chaos bool, seed int64, m *metrics) {
	next := make(chan int64) // per-submission chaos seed
	go func() {
		for i := 0; i < n; i++ {
			next <- seed + int64(i)
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				oneRequest(c, body, chaos, s, m, true)
			}
		}()
	}
	wg.Wait()
}

// openLoop fires n submissions at the given rate without waiting for
// completions (each in-flight request still records its response class).
// Submission i fires at the absolute slot start + i*interval rather than
// off a relative ticker: a ticker re-arms from whenever the loop got
// around to reading it, so scheduling jitter and slow stretches compound
// into an offered load silently below -rate. With absolute slots a late
// submission fires immediately and the schedule catches back up. The
// achieved rate is reported so drift, if any, is visible instead of
// assumed away.
func openLoop(c *client, body []byte, n int, rate float64, chaos bool, seed int64, m *metrics) {
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			oneRequest(c, body, chaos, s, m, false)
		}(seed + int64(i))
	}
	// Span covers first to last submission; in-flight waits don't count
	// against the offered rate.
	span := time.Since(start)
	wg.Wait()
	if n > 1 && span > 0 {
		// n submissions span n-1 intervals, so the achieved rate over the
		// submission window is (n-1)/span.
		log.Printf("open loop: offered %.1f req/s, achieved %.1f req/s over %d submissions",
			rate, float64(n-1)/span.Seconds(), n)
	}
}

// oneRequest performs one submission — possibly a chaos mutation — and,
// in closed-loop mode, waits for the accepted job to reach a terminal
// state, recording submit-to-terminal latency.
func oneRequest(c *client, body []byte, chaos bool, seed int64, m *metrics, wait bool) {
	kind := chaosNone
	if chaos {
		// Deterministic per-submission mix: 30% hostile, evenly split.
		switch rand.New(rand.NewSource(seed)).Intn(10) {
		case 0:
			kind = chaosMalformed
		case 1:
			kind = chaosOversized
		case 2:
			kind = chaosDisconnect
		}
	}
	start := time.Now()
	id, code, err := c.submitChaos(body, kind)
	if kind != chaosNone {
		// Hostile traffic must be rejected (or the connection dies on the
		// disconnect case); an accepted chaos job would be a server bug.
		m.count(func(s *counts) {
			s.chaosSent++
			if code == http.StatusAccepted {
				s.chaosAccepted++
			}
		})
		return
	}
	switch {
	case err != nil:
		m.count(func(s *counts) { s.transportErrs++ })
	case code == http.StatusAccepted:
		m.count(func(s *counts) { s.accepted++ })
	case code == http.StatusTooManyRequests:
		m.count(func(s *counts) { s.backpressured++ })
	default:
		m.count(func(s *counts) { s.rejected++ })
	}
	if !wait || err != nil || code != http.StatusAccepted {
		return
	}
	state, err := c.waitTerminal(id)
	lat := time.Since(start)
	m.count(func(s *counts) {
		switch {
		case err != nil:
			s.waitErrs++
		case state == "done":
			s.done++
			s.latency.Observe(lat.Seconds())
		case state == "canceled":
			s.canceled++
		default:
			s.failed++
		}
	})
}

// ---- chaos client -------------------------------------------------------

type chaosKind int

const (
	chaosNone chaosKind = iota
	chaosMalformed
	chaosOversized
	chaosDisconnect
)

// brokenReader feeds a few bytes then fails, aborting the request
// mid-flight — the client half of a dropped connection.
type brokenReader struct{ sent bool }

func (b *brokenReader) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, []byte(`{"name": "doomed`)), nil
	}
	return 0, errors.New("chaos: client hung up")
}

func (c *client) submitChaos(body []byte, kind chaosKind) (string, int, error) {
	switch kind {
	case chaosMalformed:
		return c.submit(strings.NewReader(`{"name": "broken", "workload":`))
	case chaosOversized:
		// Comfortably past the daemon's default 1 MiB body cap.
		return c.submit(bytes.NewReader(make([]byte, 2<<20)))
	case chaosDisconnect:
		return c.submit(&brokenReader{})
	default:
		return c.submit(bytes.NewReader(body))
	}
}

// ---- HTTP client --------------------------------------------------------

type client struct {
	base    string
	hc      *http.Client
	jobWait time.Duration
}

// submit POSTs one scenario body; on 202 it returns the new job id.
func (c *client) submit(body io.Reader) (string, int, error) {
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", body)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return "", resp.StatusCode, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st.ID, resp.StatusCode, nil
}

// jobStatus mirrors the status-endpoint fields -once reports on.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Cache *struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Dedups   uint64 `json:"dedups"`
		Computes uint64 `json:"computes"`
	} `json:"cache"`
	MerkleRoot string `json:"merkle_root"`
}

// status fetches one job's full status snapshot.
func (c *client) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("status fetch failed with %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// waitTerminal polls the job until it reaches a terminal state.
func (c *client) waitTerminal(id string) (string, error) {
	deadline := time.Now().Add(c.jobWait)
	for {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st.State, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s still %s after %s", id, st.State, c.jobWait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (c *client) result(id, format string) (string, error) {
	url := c.base + "/v1/jobs/" + id + "/result"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := c.hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("result fetch failed with status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return string(out), nil
}

func (c *client) statusBody(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(out)), err
}

func (c *client) health() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// ---- metrics ------------------------------------------------------------

type counts struct {
	accepted, backpressured, rejected int
	transportErrs, waitErrs           int
	done, failed, canceled            int
	chaosSent, chaosAccepted          int
	latency                           stats.Sample
}

type metrics struct {
	mu sync.Mutex
	c  counts
}

func (m *metrics) count(fn func(*counts)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn(&m.c)
}

func (m *metrics) report(w io.Writer, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.c
	fmt.Fprintf(w, "elapsed %.2fs\n", elapsed.Seconds())
	fmt.Fprintf(w, "accepted %d  backpressured(429) %d  rejected %d  transport-errors %d\n",
		c.accepted, c.backpressured, c.rejected, c.transportErrs)
	if c.done+c.failed+c.canceled+c.waitErrs > 0 {
		fmt.Fprintf(w, "done %d  failed %d  canceled %d  wait-errors %d\n",
			c.done, c.failed, c.canceled, c.waitErrs)
	}
	if c.chaosSent > 0 {
		fmt.Fprintf(w, "chaos sent %d  wrongly accepted %d\n", c.chaosSent, c.chaosAccepted)
	}
	if c.latency.Count() > 0 {
		fmt.Fprintf(w, "job latency: mean %.3fs  p99 %.3fs  max %.3fs  (n=%d)\n",
			c.latency.Mean(), c.latency.Percentile(99), c.latency.Max(), c.latency.Count())
	}
}
