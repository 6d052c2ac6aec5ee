package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer, kept in memory and written out once at exit; spans inside the
// program under test are a later change. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Group  string `json:"group"`  // shared by all spans of one pass or one job
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // "hit" or "miss" on job spans
	Start  int64  `json:"start_ns"`      // since the tracer was made
	End    int64  `json:"end_ns"`        // 0 while open
}

type tracer struct {
	t0  time.Time
	off atomic.Bool // the untraced comparison pass of a traced run

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// start opens a span and returns its id, or noSpan when not recording.
func (t *tracer) start(parent int, group, name string) int {
	if t == nil || t.off.Load() {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Group: group, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endTagged(id, "") }

func (t *tracer) endTagged(id int, tag string) {
	if id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = max(now, t.spans[id].Start+1)
	t.spans[id].Tag = tag
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes is each span's duration minus the part of it its children
// cover (children of one job can overlap: the server runs it while the
// client waits), indexed by span id.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkSpans reports the first structural defect: a span left open, a
// parent that does not exist, or a span that starts before its parent.
// A child may outlive its parent only where the server's work on a job
// outlasts the client call that started it; those spans hang off the job
// root, which does enclose them.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End <= s.Start {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent == noSpan {
			continue
		}
		if s.Parent < 0 || s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// spanDurations collects the durations in ms of every span with the name.
func spanDurations(spans []span, name string) []float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start)/1e6)
		}
	}
	return v
}

// writeSpans writes spans.json: every span, plus per name the count,
// total and self time, which is the table to read first.
func writeSpans(path string, spans []span) error {
	type row struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	self := selfTimes(spans)
	byName := map[string]*row{}
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(self[s.ID]) / 1e6
	}
	rows := make([]row, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	data, err := json.MarshalIndent(struct {
		ByName []row  `json:"by_name"`
		Spans  []span `json:"spans"`
	}{rows, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
