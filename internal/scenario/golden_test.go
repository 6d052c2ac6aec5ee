package scenario

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dse"
)

// TestFig8QuickGolden proves the declarative path is exact: running
// examples/scenarios/fig8-quick.json must reproduce the hand-coded
// Quick-fidelity Figure 8 sweep byte-for-byte (rendered through the same
// dse CSV writer).
func TestFig8QuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full Fig8 sweeps")
	}
	s, err := Load("../../examples/scenarios/fig8-quick.json")
	if err != nil {
		t.Fatal(err)
	}

	// The scenario file must stay in lockstep with dse.Fig8Options(Quick),
	// otherwise the "reproduces Fig8" claim silently decays.
	want := dse.Fig8Options(dse.Quick)
	if s.Kernel.N != want.N {
		t.Errorf("fig8-quick.json n = %d, dse says %d", s.Kernel.N, want.N)
	}
	if !reflect.DeepEqual(s.Kernel.Cores, want.Cores) {
		t.Errorf("fig8-quick.json cores = %v, dse says %v", s.Kernel.Cores, want.Cores)
	}
	if !reflect.DeepEqual(s.Kernel.CacheKB, want.CachesKB) {
		t.Errorf("fig8-quick.json cache_kb = %v, dse says %v", s.Kernel.CacheKB, want.CachesKB)
	}
	if len(want.Policies) != 1 || want.Policies[0] != cache.WriteBack ||
		!reflect.DeepEqual(s.Kernel.Policies, []string{"write-back"}) {
		t.Errorf("fig8-quick.json policies = %v, dse says %v", s.Kernel.Policies, want.Policies)
	}

	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	gotCSV := dse.PointsCSV(DSEPoints(results))

	pts, err := dse.SweepCtx(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := dse.PointsCSV(pts)

	if gotCSV != wantCSV {
		t.Errorf("scenario sweep diverges from dse.Fig8(Quick):\n--- scenario ---\n%s--- dse ---\n%s",
			gotCSV, wantCSV)
	}
	// The scenario's own CSV renderer must agree byte-for-byte too (same
	// columns, same verbs), so CLI output is directly comparable.
	if own, err := Render(results, FormatCSV); err != nil || own != wantCSV {
		t.Errorf("scenario csv diverges from dse.PointsCSV (err %v):\n--- scenario ---\n%s--- dse ---\n%s",
			err, own, wantCSV)
	}
}
