package scenario

import (
	"context"
	"reflect"
	"testing"
)

// TestServiceAblationShape holds the S-2 contract: the request/response
// workload swept over hotspot skews x arrival rates on the paper's 4x4
// torus (12 clients, 4 servers) is deterministic, completes work at every
// point, and the worst server-side p99 rises monotonically with hotspot
// skew — concentration, not the fabric, drives the tail.
func TestServiceAblationShape(t *testing.T) {
	skews := []float64{0, 0.5, 0.9}
	worst := make([]float64, len(skews))
	for i, skew := range skews {
		s := &Scenario{
			Name:     "service-ablation",
			Workload: WorkloadService.String(),
			Service: &ServiceConfig{
				Width: 4, Height: 4,
				Servers:       4,
				ArrivalRates:  []float64{0.01, 0.02, 0.04},
				ThinkTime:     8,
				HotspotSkew:   skew,
				WarmupCycles:  500,
				MeasureCycles: 3000,
			},
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		rows, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(s.Service.ArrivalRates) {
			t.Fatalf("skew %.2f: got %d rows, want %d", skew, len(rows), len(s.Service.ArrivalRates))
		}
		for _, r := range rows {
			if r.Completed == 0 {
				t.Errorf("skew %.2f rate %.3f completed nothing", skew, r.ArrivalRate)
			}
			worst[i] = max(worst[i], r.P99Server)
		}
		again, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, again) {
			t.Errorf("skew %.2f: service sweep not deterministic", skew)
		}
	}
	for i := 1; i < len(skews); i++ {
		if worst[i] <= worst[i-1] {
			t.Errorf("worst p99-srv at skew %.2f (%.0f) not above skew %.2f (%.0f)",
				skews[i], worst[i], skews[i-1], worst[i-1])
		}
	}
}
