package noc

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// recordPoint runs one synthetic-traffic measurement with a trace recorder
// attached and returns the source measurement plus the capture.
func recordPoint(t *testing.T, topo Topology, pat Pattern, rate float64, warmup, measure int64) (Measurement, *trace.Trace) {
	t.Helper()
	tk := topo.Kind()
	w, h := topo.Dims()
	tr := trace.New(trace.Header{
		Width: w, Height: h,
		Topology: tk.String(), Router: RouterDeflection.String(),
		Pattern: pat.String(), Rate: rate, Seed: 11,
		Warmup: warmup, Measure: measure,
	})
	m, err := MeasureCtx(context.Background(), topo, MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: pat, Rate: rate, HotspotNode: 5, Record: tr},
		Warmup:  warmup, Measure: measure, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// replayEvents converts a capture to the replay input.
func replayEvents(tr *trace.Trace) []ReplayEvent {
	evs := make([]ReplayEvent, len(tr.Events))
	for i, ev := range tr.Events {
		evs[i] = ReplayEvent{
			Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta,
			Req: ev.Kind == trace.EventMessage,
		}
	}
	return evs
}

// TestRecordReplayDifferential is the replay fidelity contract: for every
// traffic pattern on both the torus and the mesh, at a low and a loaded
// rate, recording a run and replaying the capture on the same fabric
// yields a byte-identical Measurement (CyclesSkipped excepted — it is a
// performance counter, free to differ between live draws and a
// pre-scheduled replay). The capture also survives a disk round trip.
func TestRecordReplayDifferential(t *testing.T) {
	const warmup, measure = 64, 1200
	dir := t.TempDir()
	for _, tk := range []TopologyKind{TopoTorus, TopoMesh} {
		topo, err := NewTopologyOfKind(tk, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PatternNames() {
			pat, err := ParsePattern(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidatePattern(pat, topo); err != nil {
				continue // pattern/grid combination not expressible here
			}
			for _, rate := range []float64{0.05, 0.3} {
				t.Run(tk.String()+"/"+name+"/"+map[float64]string{0.05: "low", 0.3: "high"}[rate], func(t *testing.T) {
					t.Parallel()
					src, tr := recordPoint(t, topo, pat, rate, warmup, measure)

					// Disk round trip inside the loop: the replay below
					// consumes the decoded file, not the in-memory capture.
					path := filepath.Join(dir, tk.String()+"-"+name+".trace")
					if err := tr.Save(path); err != nil {
						t.Fatal(err)
					}
					loaded, err := trace.Load(path)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(loaded.Events, tr.Events) {
						t.Fatal("events changed across Save/Load")
					}

					rep, err := MeasureReplayCtx(context.Background(), topo, ReplayConfig{
						Router: RouterDeflection,
						Events: replayEvents(loaded),
						Warmup: warmup, Measure: measure,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rate == 0.05 && rep.CyclesSkipped == 0 {
						t.Error("low-load replay never fast-forwarded; pre-scheduled injections should give exact idle bounds")
					}
					src.CyclesSkipped, rep.CyclesSkipped = 0, 0
					if !reflect.DeepEqual(src, rep) {
						t.Errorf("replay diverged from source run:\nsrc %+v\nrep %+v", src, rep)
					}
				})
			}
		}
	}
}

// TestReplayCrossTopology: a trace recorded on the torus replays on the
// mesh — different fabric, same injected traffic — and the replay is
// deterministic run to run (the cross-axis guarantee the scenario
// runner's replay axes rely on).
func TestReplayCrossTopology(t *testing.T) {
	torus, err := NewTopologyOfKind(TopoTorus, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewTopologyOfKind(TopoMesh, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcOnTorus, tr := recordPoint(t, torus, Uniform, 0.2, 50, 1000)
	evs := replayEvents(tr)

	rc := ReplayConfig{Router: RouterDeflection, Events: evs, Warmup: 50, Measure: 1000}
	first, err := MeasureReplayCtx(context.Background(), mesh, rc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MeasureReplayCtx(context.Background(), mesh, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("mesh replay of a torus trace not deterministic:\n%+v\nvs\n%+v", first, again)
	}
	// Same injections, different fabric: the mesh lacks wraparound links,
	// so the traffic itself must match while delivery behaviour may not.
	if first.Delivered == 0 {
		t.Error("cross-topology replay delivered nothing")
	}
	if first.MeanLatency == srcOnTorus.MeanLatency {
		t.Log("torus and mesh replays coincide exactly (possible but unexpected at rate 0.2)")
	}
}

// TestReplayValidation: the replay entry point rejects impossible inputs
// instead of simulating garbage.
func TestReplayValidation(t *testing.T) {
	topo, err := NewTopologyOfKind(TopoTorus, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := MeasureReplayCtx(ctx, topo, ReplayConfig{Router: RouterDeflection, Measure: 0}); err == nil {
		t.Error("zero measure window accepted")
	}
	if _, err := MeasureReplayCtx(ctx, topo, ReplayConfig{
		Router: RouterDeflection, Measure: 100,
		Events: []ReplayEvent{{Cycle: 1, Src: 99, Dst: 0}},
	}); err == nil {
		t.Error("off-grid source endpoint accepted")
	}
	if _, err := MeasureReplayCtx(ctx, topo, ReplayConfig{
		Router: RouterDeflection, Measure: 100,
		Events: []ReplayEvent{{Cycle: 1, Src: 0, Dst: 99}},
	}); err == nil {
		t.Error("off-grid destination endpoint accepted")
	}
}
