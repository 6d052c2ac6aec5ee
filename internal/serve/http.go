package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/scenario"
)

// Connection bounds of the HTTP servers the binaries run (medea-serve and
// medea-scenarios -worker-listen). A client that never finishes its
// request header is dropped after readHeaderTimeout, and an idle
// keep-alive connection after idleTimeout, so neither holds a goroutine
// and a file descriptor forever. There is no write deadline: a shard
// response streams for as long as the shard runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the server every binary serves h with, carrying
// the connection bounds above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a scenario (JSON body) -> 202 JobStatus
//	                            400 invalid scenario, 413 body too large,
//	                            429 queue full (+ Retry-After), 503 draining
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel (idempotent; terminal jobs unchanged)
//	GET    /v1/jobs/{id}/result rendered results (?format=table|csv|json or
//	                            a figure, e.g. fig9); 409 until done, 404
//	                            unknown id, 400 for a format the job's
//	                            workload cannot draw
//	GET    /healthz             process liveness (always 200 while serving)
//	GET    /readyz              admission readiness (503 once draining)
//	GET    /metrics             Prometheus text: queue depth, jobs by state,
//	                            429s, cache hits/misses/evictions, goroutines,
//	                            heap in use
//
// Error responses are JSON: {"error": "..."} plus the job's state where
// one exists.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		// Mid-flight client disconnects land here; the connection is dead,
		// but answer anyway for the cases where it is not.
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(sc)
	var full *QueueFullError
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(full.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// retryAfterSeconds renders a backpressure hint as whole seconds, never
// below 1: "Retry-After: 0" tells clients to retry immediately, which
// turns the 429 path into a tight retry storm — exactly what the header
// exists to prevent. Sub-second and unset/negative durations (a Server
// constructed without withDefaults) all clamp up to 1.
func retryAfterSeconds(d time.Duration) int {
	if s := int(math.Ceil(d.Seconds())); s > 1 {
		return s
	}
	return 1
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	out, format, st, err := s.result(r.PathValue("id"), r.URL.Query().Get("format"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotFinished):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "id": st.ID, "state": st.State,
		})
	case err != nil && st.State.Terminal() && st.State != StateDone:
		// Failed or canceled: the job is settled, report its cause.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "id": st.ID, "state": st.State,
		})
	case err != nil:
		// Render error (unknown format) on a done job.
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Content-Type", contentTypeFor(format))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, out)
	}
}

// contentTypeFor picks the response media type from the resolved render
// format (text unless the bytes are JSON).
func contentTypeFor(format string) string {
	if format == scenario.FormatJSON {
		return "application/json"
	}
	return "text/plain; charset=utf-8"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
