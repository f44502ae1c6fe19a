package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json, the driver's view of the benchmark.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileLayer    `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fromRegistry is what BENCHMARK.json must say, given the harness's
// registries.
func fromRegistry() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Gated {
			bf.EndToEnd = append(bf.EndToEnd, fileMetric{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer {
		bf.PerLayer = append(bf.PerLayer, fileLayer{d.Name, d.Unit, d.Better})
	}
	return bf
}

// TestBenchmarkJSONMatchesRegistry: BENCHMARK.json and the harness list the
// same workloads and metrics, within the driver's limits. Run with
// UPDATE_BENCHMARK_JSON=1 to rewrite the file from the registry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	checkRegistry()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fromRegistry()); err != nil {
		t.Fatal(err)
	}
	want := buf.Bytes()
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's registries; rerun with UPDATE_BENCHMARK_JSON=1\n got %d bytes, want %d", len(got), len(want))
	}
	bf := fromRegistry()
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the driver takes 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the driver takes 64 KiB", len(want))
	}
	setup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, w := range bf.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the driver takes 200", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload and the traced run at the smallest scale
// and checks that every registered metric comes out finite, with its unit,
// and that nothing fails its oracle.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := capProcs()
	canServe := true
	if _, _, err := buildServe(root); err != nil {
		t.Logf("reo-serve cannot be built here, skipping serve-sessions: %v", err)
		canServe = false
	}
	const budget = 200 * time.Millisecond
	var names []string
	for _, w := range workloads {
		if w.Name == wServe && !canServe {
			continue
		}
		names = append(names, w.Name)
		r := newRun(w.Name, 1, budget, nil, nil, root)
		r.quick = true
		if err := w.run(r); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		wr, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed > 0 {
			t.Errorf("%s: %d of %d checked operations failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Notes)
		}
		for _, d := range endToEnd {
			m, ok := wr.Metrics[d.Name]
			if !d.appliesTo(w.Name) {
				continue
			}
			if !ok || !finite(m.Value) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want a finite value in %s", w.Name, d.Name, m, d.Unit)
			}
			if d.Gated && m.Value == 0 {
				t.Errorf("%s: metric %s is 0; the driver takes metrics that are never 0", w.Name, d.Name)
			}
		}
	}
	if !canServe {
		return // the traced run's serve probe needs the binary too
	}
	layers, _, failed, err := runTraced(names[:1], 1, budget, nil, root, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Errorf("traced run: %d checked operations failed", failed)
	}
	for _, d := range perLayer {
		m, ok := layers[d.Name]
		if !ok || !finite(m.Value) || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v, want a finite value in %s", d.Name, m, d.Unit)
		}
	}
}

// TestFaultIsCaught: the -inject-fault self-test corrupts one received
// value and the oracle must count it.
func TestFaultIsCaught(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	capProcs()
	for _, name := range []string{wFire, wFig12, wBatch, wRemote, wNPB} {
		f := &fault{}
		f.armed.Store(true)
		w, _ := workloadByName(name)
		r := newRun(name, 1, 100*time.Millisecond, nil, f, root)
		r.quick = true
		if err := w.run(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !f.fired.Load() || r.failed == 0 {
			t.Errorf("%s: injected fault fired=%v, failed ops=%d; the oracle must catch it", name, f.fired.Load(), r.failed)
		}
	}
}

// TestOracleShapes: the hand-written expectations accept the sequences
// they describe and reject a wrong one.
func TestOracleShapes(t *testing.T) {
	val := func(s, i int) int { return s*stride + i }
	const n, k = 3, 4
	lanes := make([][]int, n)
	for r := range lanes {
		for i := 0; i < k; i++ {
			lanes[r] = append(lanes[r], val(r, i))
		}
	}
	if bad, why := lanewise.check(n, k, lanes, val); bad != 0 {
		t.Errorf("lanewise rejects its own sequences: %s", why)
	}
	lanes[1][2]++
	if bad, _ := lanewise.check(n, k, lanes, val); bad != 1 {
		t.Errorf("lanewise found %d wrong values, want 1", bad)
	}
	lanes[1][2]--
	merged := [][]int{append(append(append([]int{}, lanes[2]...), lanes[0]...), lanes[1]...)}
	if bad, why := conserved(all).check(n, k, merged, val); bad != 0 {
		t.Errorf("conserved rejects a permutation that keeps each sender's order: %s", why)
	}
	merged[0][0], merged[0][1] = merged[0][1], merged[0][0]
	if bad, _ := conserved(all).check(n, k, merged, val); bad == 0 {
		t.Error("conserved accepts a sender's values out of order")
	}
	var alt []int
	for i := 0; i < k; i++ {
		for s := 0; s < n; s++ {
			alt = append(alt, val(s, i))
		}
	}
	if bad, why := alternating.check(n, k, [][]int{alt}, val); bad != 0 {
		t.Errorf("alternating rejects its own sequence: %s", why)
	}
	c := fifoCheck{vals: payload(7)}
	for i := 0; i < 3*payloadPeriod+5; i++ {
		c.add(c.vals[i%payloadPeriod])
	}
	if bad := c.verify(3*payloadPeriod + 5); bad != 0 {
		t.Errorf("fifoCheck rejects the payload stream: %d bad", bad)
	}
	if bad := c.verify(3 * payloadPeriod); bad == 0 {
		t.Error("fifoCheck accepts a stream of the wrong length")
	}
}
