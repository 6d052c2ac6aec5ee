package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// compareFiles is `bench -compare a.json b.json`, a the parent and b the
// change. For every end-to-end metric on every workload it prints both
// medians with their quartiles, how much worse b is, and the bound. A
// pair whose own spread (the distance between the quartiles of either
// run, as a share of its median) is wider than the bound cannot resolve a
// change of that size and is marked unresolved, not unchanged. A breach,
// a count marked exact that differs, or a result root that differs makes
// the exit status 1.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compare(a, b, stdout)
}

func compare(a, b *results, w io.Writer) int {
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(w, "FAIL  "+format+"\n", args...)
	}
	if !a.Valid || !b.Valid {
		fail("a smoke run is not a measurement")
	}
	if a.Seed != b.Seed {
		fail("seeds differ (%d, %d): exact counts and roots are only comparable for one seed", a.Seed, b.Seed)
	}
	if a.Traced != b.Traced {
		fail("one run is traced and the other is not")
	}

	fmt.Fprintf(w, "%-14s %-20s %24s %24s %9s %6s\n", "workload", "metric", "a (q1..q3)", "b (q1..q3)", "worse by", "bound")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			if wa != wb {
				fail("%s: in one run only", name)
			}
			continue
		}
		if wa.ResultRoot != wb.ResultRoot {
			fail("%s: result_root differs: %s, %s", name, wa.ResultRoot, wb.ResultRoot)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fail("%s: failed operations: %d, %d", name, wa.Failed, wb.Failed)
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.iqrShare() > d.bound || mb.iqrShare() > d.bound:
				verdict = "unresolved: spread wider than the bound"
			case worse > d.bound:
				verdict = "BREACH"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %24s %24s %+8.1f%% %5.0f%%  %s\n", name, d.name,
				withQuartiles(ma), withQuartiles(mb), 100*worse, 100*d.bound, verdict)
		}
		bad += compareLayers(w, name+": ", wa.PerLayer, wb.PerLayer)
	}
	bad += compareLayers(w, "", a.PerLayer, b.PerLayer)
	if bad > 0 {
		fmt.Fprintf(w, "%d problem(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no breach; every exact count and result root agrees")
	return 0
}

func withQuartiles(m metric) string {
	return fmt.Sprintf("%.4g (%.4g..%.4g)", m.Value, m.Q1, m.Q3)
}

// compareLayers prints per-layer metrics side by side. They carry no
// bound; only a count marked exact can fail, by differing at all.
func compareLayers(w io.Writer, prefix string, a, b map[string]metric) (bad int) {
	names := make([]string, 0, len(a))
	for n := range a {
		if _, ok := b[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a[n], b[n]
		switch {
		case ma.Exact && ma.Value != mb.Value:
			bad++
			fmt.Fprintf(w, "FAIL  %s%s: exact count differs: %v, %v\n", prefix, n, ma.Value, mb.Value)
		case ma.Exact:
			fmt.Fprintf(w, "  %s%-34s %14.6g %14.6g %-6s exact, equal\n", prefix, n, ma.Value, mb.Value, ma.Unit)
		default:
			fmt.Fprintf(w, "  %s%-34s %14.6g %14.6g %-6s %+.1f%%\n", prefix, n, ma.Value, mb.Value, ma.Unit, 100*(mb.Value-ma.Value)/ma.Value)
		}
	}
	return bad
}
