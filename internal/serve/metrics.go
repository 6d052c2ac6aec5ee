package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
)

// handleMetrics serves the daemon's counters in the Prometheus text
// exposition format (version 0.0.4), written by hand so the daemon needs
// nothing outside the standard library. Every series is read at scrape
// time; nothing on the job path pays for it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cache := s.cfg.Cache.Stats()
	evictions := s.cfg.Cache.Evictions()

	s.mu.Lock()
	byState := make(map[State]int, 5)
	for _, j := range s.jobs {
		byState[j.state]++
	}
	queued, queueFull := len(s.queue), s.queueFull
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metric(w, "medea_serve_queue_depth", "gauge", "Queue slots held by accepted jobs not yet picked up.", queued)
	metric(w, "medea_serve_jobs", "gauge", "Jobs in the job table by state.")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "medea_serve_jobs{state=%q} %d\n", st, byState[st])
	}
	metric(w, "medea_serve_queue_full_total", "counter", "Submissions rejected with 429 because the queue was full.", queueFull)
	metric(w, "medea_serve_cache_hits_total", "counter", "Result-cache lookups served from the store.", cache.Hits)
	metric(w, "medea_serve_cache_misses_total", "counter", "Result-cache lookups that computed the point.", cache.Misses)
	metric(w, "medea_serve_cache_evictions_total", "counter", "Result-cache entries pushed out by the byte budget.", evictions)
	metric(w, "go_goroutines", "gauge", "Goroutines that currently exist.", runtime.NumGoroutine())
	metric(w, "go_memstats_heap_inuse_bytes", "gauge", "Bytes in in-use heap spans.", mem.HeapInuse)
}

// metric writes one series' HELP and TYPE lines and, given a value, its
// unlabelled sample.
func metric(w io.Writer, name, typ, help string, value ...any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, v := range value {
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
}
