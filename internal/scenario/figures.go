package scenario

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dse"
)

// Figure formats: the paper's figures and tables, and the kernel
// ablations, are render formats of a kernel scenario's rows. Each turns
// the rows back into the dse sweep points they were projected from
// (kernelPoint) and draws them with the dse renderer of its figure, so a
// figure is a scenario file run through any front door (CLI, shards,
// daemon) and rendered in its format. The rows, CSV, JSON and roots of
// the run do not depend on the format.

// figure is one figure format: its name, the workloads whose rows it
// draws, and its renderer. The renderer gets the scenario's kernel
// section for the K-1 caption's problem size, which no row carries.
type figure struct {
	format    string
	workloads []WorkloadKind
	draw      func(c *KernelConfig, pts []dse.KernelPoint) string
}

var jacobiOnly = []WorkloadKind{WorkloadJacobi}

// figures lists the figure formats in paper order: Figs 6-9 and T-1/T-2
// draw a jacobi sweep (Figs 7 and 9 read the sweeps of Figs 6 and 8), S-1
// a syncbench sweep and K-1 any mix of the kernels.
var figures = []figure{
	{"fig6", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string { return dse.Fig6Table(p, dse.Fig6Title) }},
	{"fig7", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string { return dse.Fig7(p) }},
	{"fig8", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string { return dse.Fig6Table(p, dse.Fig8Title) }},
	{"fig9", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string { return dse.Fig9(p) }},
	{"hybrid", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string {
		return dse.CompareTable(dse.CompareRows(p), dse.HybridTitle)
	}},
	{"sync", jacobiOnly, func(_ *KernelConfig, p []dse.KernelPoint) string {
		return dse.CompareTable(dse.CompareRows(p), dse.SmallCacheTitle)
	}},
	{"barrier", []WorkloadKind{WorkloadSyncbench}, ablationTable},
	{"kernel", []WorkloadKind{WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench}, ablationTable},
}

// ablationTable draws K-1 and S-1. The caption names the problem size and
// the one L1 size every kernel's sweep shares.
func ablationTable(c *KernelConfig, p []dse.KernelPoint) string {
	return dse.KernelAblationTable(dse.KernelOptions{N: c.N, CachesKB: c.CacheKB}, p)
}

// figureOf returns the figure format named format, or nil.
func figureOf(format string) *figure {
	for i := range figures {
		if figures[i].format == format {
			return &figures[i]
		}
	}
	return nil
}

// fitFigure returns nil unless format is a figure format that cannot draw
// the rows of the workloads kinds.
func fitFigure(format string, kinds []WorkloadKind) error {
	f := figureOf(format)
	if f == nil {
		return nil
	}
	for _, k := range kinds {
		if !slices.Contains(f.workloads, k) {
			names := make([]string, len(f.workloads))
			for i, w := range f.workloads {
				names[i] = w.String()
			}
			return fmt.Errorf("format %q draws %s rows, and this scenario runs %v", format, strings.Join(names, "/"), k)
		}
	}
	return nil
}

// Render renders the results of a run of s in the format choice resolves
// to (ResolveFormat). A figure format turns each row back into the sweep
// point it was projected from and draws its figure from them; a row
// format renders the rows through the package-level Render.
func (s *Scenario) Render(results []Result, choice string) (string, error) {
	format, err := s.ResolveFormat(choice)
	if err != nil {
		return "", err
	}
	f := figureOf(format)
	if f == nil {
		return Render(results, format)
	}
	pts := make([]dse.KernelPoint, len(results))
	for i, r := range results {
		if pts[i], err = kernelPoint(r); err != nil {
			return "", fmt.Errorf("scenario: format %q: %w", format, err)
		}
	}
	return f.draw(s.Kernel, pts), nil
}
