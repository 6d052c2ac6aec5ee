package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/resultcache"
)

// Handler serves the worker protocol over HTTP (medea-scenarios
// -worker-listen): POST a JSON Request of at most MaxRequest bytes
// (larger gets 413), receive the frame stream — progress frames flushed
// as they happen, then the terminal frame — as the response body. One
// request per HTTP exchange.
func Handler(cache *resultcache.Cache) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a shard request", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequest+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > MaxRequest {
			http.Error(w, fmt.Sprintf("request exceeds the %d-byte bound", MaxRequest), http.StatusRequestEntityTooLarge)
			return
		}
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		fw := &flushWriter{w: w}
		resp := handleRequest(r.Context(), &req, fw, cache)
		_ = WriteFrame(fw, resp)
	})
}

// flushWriter flushes after every write so progress frames stream to the
// coordinator instead of buffering until the shard finishes.
type flushWriter struct{ w http.ResponseWriter }

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// HTTPWorker runs shards on a worker over HTTP. No client timeout is
// set: a Full-fidelity shard legitimately runs for minutes, and
// cancellation flows through the request context.
type HTTPWorker struct {
	// URL is the worker endpoint (the -worker-listen address).
	URL string

	nextID int64
}

// Run implements Worker: POST the request, stream the framed response.
func (h *HTTPWorker) Run(ctx context.Context, req *Request, progress func(*Response)) (*Response, error) {
	h.nextID++
	req.ID = h.nextID
	req.Version = ProtocolVersion
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard: worker %s: %s: %s", h.URL, resp.Status, bytes.TrimSpace(msg))
	}
	fr, err := readReply(ctx, resp.Body, req.ID, progress)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", h.URL, err)
	}
	return fr, nil
}

// Close implements Worker; HTTP workers hold no local resources.
func (h *HTTPWorker) Close() error { return nil }

// HTTPFactory returns a Coordinator.NewWorker that hands out the listed
// worker URLs round-robin.
func HTTPFactory(urls []string) func(ctx context.Context) (Worker, error) {
	var next atomic.Int64
	return func(ctx context.Context) (Worker, error) {
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard: no worker URLs")
		}
		i := int(next.Add(1)-1) % len(urls)
		return &HTTPWorker{URL: urls[i]}, nil
	}
}
