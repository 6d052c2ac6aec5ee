package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		counts := make([]int32, 37)
		if err := ForEachCtx(context.Background(), len(counts), workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ran := false
	err := ForEachCtx(context.Background(), 0, 4, func(int) error { ran = true; return nil })
	if ran || err != nil {
		t.Errorf("n=0: ran=%v err=%v", ran, err)
	}
}

func TestForEachCtxCoversEveryIndexOnce(t *testing.T) {
	counts := make([]int32, 37)
	err := ForEachCtx(context.Background(), len(counts), 3, func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEachCtx: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachCtxCancellationStopsDispatch(t *testing.T) {
	// One worker, cancel from inside the third job: jobs 0-2 complete,
	// jobs 3+ never start, and the error reports the partial count.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := ForEachCtx(ctx, 100, 1, func(i int) error {
		ran.Add(1)
		if i == 2 {
			cancel()
		}
		return nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("err must unwrap to context.Canceled")
	}
	if ce.Total != 100 {
		t.Errorf("Total = %d, want 100", ce.Total)
	}
	// The dispatch select can lose a few races against an already-waiting
	// worker, but the sweep must stop near-immediately, nowhere close to
	// finishing the 100-job grid.
	if got := int(ran.Load()); got < 3 || got > 20 {
		t.Errorf("%d jobs ran after cancel at job 2, want barely more than 3", got)
	}
	if ce.Done != int(ran.Load()) {
		t.Errorf("Done = %d, but %d jobs completed", ce.Done, ran.Load())
	}
}

func TestForEachCtxPreCanceledStopsAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEachCtx(ctx, 100, 2, func(int) error { ran.Add(1); return nil })
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	// Each dispatch iteration is a select between a ready Done channel and
	// a possibly-ready worker, so a short run of jobs can slip through on
	// lost coin flips — but the sweep must die out long before 100 jobs.
	if got := int(ran.Load()); got > 20 {
		t.Errorf("%d jobs ran under a pre-canceled context", got)
	}
	if ce.Done != int(ran.Load()) {
		t.Errorf("Done = %d, but %d jobs completed", ce.Done, ran.Load())
	}
}

func TestForEachCtxPanicIsolatedPerJob(t *testing.T) {
	var ran atomic.Int32
	err := ForEachCtx(context.Background(), 8, 2, func(i int) error {
		ran.Add(1)
		if i == 3 {
			panic("poisoned config")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "poisoned config" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {Index:%d Value:%v stack:%d bytes}", pe.Index, pe.Value, len(pe.Stack))
	}
	// The panicking job must not have taken its worker down with it.
	if got := int(ran.Load()); got != 8 {
		t.Errorf("%d jobs ran, want all 8 despite the panic", got)
	}
}

func TestForEachCtxErrorsJoinInIndexOrder(t *testing.T) {
	fail := map[int]bool{5: true, 1: true, 7: true}
	err := ForEachCtx(context.Background(), 9, 4, func(i int) error {
		if fail[i] {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want a joined error")
	}
	msg := err.Error()
	i1 := strings.Index(msg, "job 1 failed")
	i5 := strings.Index(msg, "job 5 failed")
	i7 := strings.Index(msg, "job 7 failed")
	if i1 < 0 || i5 < 0 || i7 < 0 {
		t.Fatalf("missing failures in %q", msg)
	}
	if !(i1 < i5 && i5 < i7) {
		t.Errorf("errors out of index order in %q", msg)
	}
}

// squares is the Sweep fixture: job j yields j*j, so a result names the
// job it came from.
func squares(ctx context.Context, jobs []int, points []int, workers int) ([]int, error) {
	return Sweep(ctx, jobs, points, workers, func(_ context.Context, j int) (int, error) {
		return j * j, nil
	})
}

// TestSweepPointsFilter: nil selects every job, a filter selects its
// indices in filter order, and a malformed filter fails before any job
// runs.
func TestSweepPointsFilter(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		name    string
		points  []int
		want    []int
		wantErr string
	}{
		{name: "nil is all", points: nil, want: []int{0, 1, 4, 9, 16, 25, 36, 49}},
		{name: "empty is none", points: []int{}, want: []int{}},
		{name: "subset in filter order", points: []int{1, 4, 7}, want: []int{1, 16, 49}},
		{name: "every index", points: []int{0, 1, 2, 3, 4, 5, 6, 7}, want: []int{0, 1, 4, 9, 16, 25, 36, 49}},
		{name: "out of range", points: []int{0, 8}, wantErr: "index 8 outside the 8-point sweep"},
		{name: "negative", points: []int{-1}, wantErr: "point filter"},
		{name: "non-increasing", points: []int{3, 1}, wantErr: "not strictly increasing at index 1"},
		{name: "duplicate", points: []int{2, 2}, wantErr: "not strictly increasing at index 2"},
	} {
		for _, workers := range []int{0, 1, 3} {
			got, err := squares(context.Background(), jobs, tc.points, workers)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
				}
				if got != nil {
					t.Errorf("%s: results %v returned beside an error", tc.name, got)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			if len(got) != len(tc.want) {
				t.Errorf("%s workers=%d: got %v, want %v", tc.name, workers, got, tc.want)
				continue
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("%s workers=%d: got %v, want %v", tc.name, workers, got, tc.want)
					break
				}
			}
		}
	}
}

// TestSweepErrorShapes: a failing job, a panicking job and a canceled
// context surface with ForEachCtx's types, indexed by position in the
// filtered run, and discard the partial results.
func TestSweepErrorShapes(t *testing.T) {
	jobs := []int{10, 11, 12, 13}
	boom := errors.New("boom")
	got, err := Sweep(context.Background(), jobs, []int{1, 3}, 2, func(_ context.Context, j int) (int, error) {
		switch j {
		case 11:
			return 0, boom
		case 13:
			panic("poisoned point")
		}
		return j, nil
	})
	if got != nil {
		t.Errorf("results %v returned beside an error", got)
	}
	if !errors.Is(err, boom) {
		t.Errorf("returned error lost: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 || pe.Value != "poisoned point" {
		t.Errorf("panic not isolated as *PanicError at filtered index 1: %v", err)
	}

	// 100 jobs: dispatch is a select between a ready Done channel and a
	// possibly-ready worker, so a short sweep could slip through whole.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err = squares(ctx, make([]int, 100), nil, 2)
	var ce *CanceledError
	if got != nil || !errors.As(err, &ce) || ce.Total != 100 || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled sweep: results %v, err %v", got, err)
	}
}
