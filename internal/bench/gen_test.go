package bench_test

import (
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/npb"
)

// TestRunGenSteadyRows pins the interpreted lane's row shape: the
// fig12-schema key is stable (it is gated against BENCH_baseline.json),
// the rate positive, and the JSON writer round-trippable by the gate's
// reader.
func TestRunGenSteadyRows(t *testing.T) {
	res, err := bench.RunGenSteady(2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsPerSec() <= 0 {
		t.Errorf("non-positive rate %f", res.StepsPerSec())
	}
	key := bench.CompareRow{Approach: res.Approach, Connector: res.Connector, N: res.N}.Key()
	if key != "interpreted/Lane/N=1" {
		t.Errorf("gate key %q, want interpreted/Lane/N=1", key)
	}

	path := filepath.Join(t.TempDir(), "gen.json")
	if err := bench.WriteGenJSON(path, []bench.GenResult{res}); err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadCompareRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Errorf("gate reader got %d rows, want 1", len(back))
	}
}

// TestRunGenRegionScalingRows pins the RegionScaling cells: both
// approaches measured on the same n-lane fabric, gate keys stable, and
// both backends fire the identical step count for the identical
// workload (2 steps per item per lane, plus nothing else).
func TestRunGenRegionScalingRows(t *testing.T) {
	const n, items = 4, 512
	results, err := bench.RunGenRegionScaling(n, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	wantKeys := []string{"interpreted/Fabric/N=4", "generated/Fabric/N=4"}
	for i, r := range results {
		key := bench.CompareRow{Approach: r.Approach, Connector: r.Connector, N: r.N}.Key()
		if key != wantKeys[i] {
			t.Errorf("result %d: gate key %q, want %q", i, key, wantKeys[i])
		}
		if r.StepsPerSec() <= 0 {
			t.Errorf("%s: non-positive rate", r.Approach)
		}
		if want := int64(2 * n * items); r.Steps != want {
			t.Errorf("%s: %d steps in the timed window, want %d", r.Approach, r.Steps, want)
		}
	}
}

// TestRunGenNPBRow pins the generated NPB cell: it must verify the
// checksum before reporting a rate, and land in the gate under its own
// connector key.
func TestRunGenNPBRow(t *testing.T) {
	res, err := bench.RunGenNPB("EP", npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := bench.CompareRow{Approach: res.Approach, Connector: res.Connector, N: res.N}.Key()
	if key != "generated/NPB-EP/N=2" {
		t.Errorf("gate key %q, want generated/NPB-EP/N=2", key)
	}
	if res.StepsPerSec() <= 0 {
		t.Error("non-positive rate")
	}
}
