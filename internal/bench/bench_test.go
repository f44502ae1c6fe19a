package bench_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/connlib"
)

func TestStepRateMeasures(t *testing.T) {
	d, err := connlib.ByName("Merger")
	if err != nil {
		t.Fatal(err)
	}
	steps, failed, err := bench.StepRate(d, 3, bench.New(), 100*time.Millisecond)
	if err != nil || failed {
		t.Fatalf("steps=%d failed=%v err=%v", steps, failed, err)
	}
	if steps == 0 {
		t.Error("no steps measured")
	}
}

func TestStepRateReportsStaticFailure(t *testing.T) {
	d, err := connlib.ByName("EarlyAsyncMerger")
	if err != nil {
		t.Fatal(err)
	}
	// 2^24 states cannot fit in 1024.
	_, failed, err := bench.StepRate(d, 24, bench.Existing(1024), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("static compilation of a 2^24-state automaton succeeded?")
	}
}

func TestFig12Classification(t *testing.T) {
	cases := []struct {
		row  bench.Fig12Row
		want string
	}{
		{bench.Fig12Row{StepsNew: 100, OldFailed: true}, "new-compiles-old-fails"},
		{bench.Fig12Row{StepsNew: 100, StepsOld: 90}, "new-wins"},
		{bench.Fig12Row{StepsNew: 100, StepsOld: 500}, "old-wins-≤10x"},
		{bench.Fig12Row{StepsNew: 100, StepsOld: 5000}, "old-wins-≤100x"},
	}
	for _, tc := range cases {
		if got := tc.row.Classify(); got != tc.want {
			t.Errorf("%+v -> %s, want %s", tc.row, got, tc.want)
		}
	}
}

func TestRunFig12Small(t *testing.T) {
	rows, err := bench.RunFig12(bench.Fig12Config{
		Connectors: []string{"Merger"},
		Ns:         []int{2, 4},
		Budget:     20 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := bench.FormatFig12(rows)
	for _, want := range []string{"Merger", "Summary", "Per-N"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output lacks %q:\n%s", want, out)
		}
	}
}

// TestMergeBest folds repeated fig12 sweeps per cell.
func TestMergeBest(t *testing.T) {
	a := []bench.Fig12Row{{Connector: "X", N: 2, StepsNew: 10, OldFailed: true}}
	b := []bench.Fig12Row{{Connector: "X", N: 2, StepsNew: 30, StepsOld: 5}}
	got := bench.MergeBest([][]bench.Fig12Row{a, b})
	if len(got) != 1 || got[0].StepsNew != 30 || got[0].StepsOld != 5 || got[0].OldFailed {
		t.Errorf("merged = %+v, want best-of with old success kept", got)
	}
}

// TestRunBatchThroughput: the batched pipeline measures, and batching
// does not change the firing structure — same items, same global steps,
// whatever the batch degree.
func TestRunBatchThroughput(t *testing.T) {
	var steps []int64
	for _, batch := range []int{1, 4} {
		res, err := bench.RunBatchThroughput(2, 512, batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps == 0 || res.ItemsPerSec() <= 0 {
			t.Fatalf("batch=%d: empty measurement %+v", batch, res)
		}
		steps = append(steps, res.Steps)
	}
	if steps[0] != steps[1] {
		t.Errorf("steps differ across batch sizes: %d vs %d", steps[0], steps[1])
	}
}
