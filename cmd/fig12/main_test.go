package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/connlib"
)

func TestFig12Classification(t *testing.T) {
	cases := []struct {
		row  row
		want string
	}{
		{row{stepsNew: 100, oldFailed: true}, "new-compiles-old-fails"},
		{row{stepsNew: 100, stepsOld: 90}, "new-wins"},
		{row{stepsNew: 100, stepsOld: 500}, "old-wins-≤10x"},
		{row{stepsNew: 100, stepsOld: 5000}, "old-wins-≤100x"},
	}
	for _, tc := range cases {
		if got := tc.row.classify(); got != tc.want {
			t.Errorf("%+v -> %s, want %s", tc.row, got, tc.want)
		}
	}
}

// TestSweepSmall runs both approaches on two cells and renders the table.
func TestSweepSmall(t *testing.T) {
	d, err := connlib.ByName("Merger")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep([]connlib.Def{d}, []int{2, 4}, 20*time.Millisecond, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := format(rows)
	for _, want := range []string{"Merger", "Summary", "Per-N"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output lacks %q:\n%s", want, out)
		}
	}
}

// TestStaticFailureReported: a static product past the existing
// approach's capacity is a FAIL cell of the table, not a sweep error.
func TestStaticFailureReported(t *testing.T) {
	d, err := connlib.ByName("EarlyAsyncMerger")
	if err != nil {
		t.Fatal(err)
	}
	// 2^24 states cannot fit in 1024.
	rows, err := sweep([]connlib.Def{d}, []int{24}, time.Millisecond, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].oldFailed {
		t.Fatalf("rows = %+v, want one cell whose static compilation failed", rows)
	}
	if out := format(rows); !strings.Contains(out, "FAIL") {
		t.Errorf("formatted output lacks the FAIL cell:\n%s", out)
	}
}

// TestMergeBest folds repeated sweeps per cell.
func TestMergeBest(t *testing.T) {
	a := []row{{connector: "X", n: 2, stepsNew: 10, oldFailed: true}}
	b := []row{{connector: "X", n: 2, stepsNew: 30, stepsOld: 5}}
	got := mergeBest([][]row{a, b})
	if len(got) != 1 || got[0].stepsNew != 30 || got[0].stepsOld != 5 || got[0].oldFailed {
		t.Errorf("merged = %+v, want best-of with old success kept", got)
	}
}
