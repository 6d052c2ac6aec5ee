package scenario

import (
	"reflect"
	"testing"

	"repro/internal/dse"
)

// TestFig8QuickGolden proves the declarative path is exact:
// examples/scenarios/fig8-quick.json resolves to dse.Fig8Options(Quick),
// so it runs the very sweep behind the Quick-fidelity Figure 8. Its rows
// are pinned by TestExampleRootsGolden, its CSV by medea-scenarios'
// TestGoldenFig8ViaCLI and the figure by medea-experiments'
// TestFigsGolden.
func TestFig8QuickGolden(t *testing.T) {
	s, err := Load("../../examples/scenarios/fig8-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.kernelSweepOptions(dse.KernelJacobi)
	if err != nil {
		t.Fatal(err)
	}
	got.Parallelism, got.Cache = 0, nil
	if want := dse.Fig8Options(dse.Quick); !reflect.DeepEqual(got, want) {
		t.Errorf("fig8-quick.json resolves to\n%+v\ndse.Fig8Options(Quick) is\n%+v", got, want)
	}
}
