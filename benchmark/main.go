// Command benchmark is the one benchmark for the whole stack: eight named
// workloads, end-to-end metrics measured untraced, and per-layer attribution
// measured from outside by timing calls into each layer's exported
// functions. See README.md.
//
//	cd benchmark && go run . [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-o out.json]
//	cd benchmark && go run . -compare a.json b.json
//	cd benchmark && go run . -selfcheck
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// host is recorded next to every result: numbers from different core
// counts are not comparable.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

// workloadResult is one workload's untraced outcome.
type workloadResult struct {
	Metrics   map[string]summary `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
}

// resultFile is what -o writes and -compare reads: one trajectory point.
type resultFile struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads,omitempty"`
	// PerLayer holds the traced run's numbers; end-to-end numbers above
	// always come from the untraced run.
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// capProcs applies the sizing rule: tasks are goroutines as in the paper,
// OS threads are capped at min(nproc, 4).
func capProcs() host {
	cores := runtime.NumCPU()
	procs := min(cores, 4)
	runtime.GOMAXPROCS(procs)
	return host{Cores: cores, GOMAXPROCS: procs, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "workload seed: connector choice seeds, payload values, cell order")
		seconds   = flag.Float64("seconds", 10, "timed seconds per workload")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to benchmark/out/")
		out       = flag.String("o", "", "also write the full result (quartiles, sample counts, host) to this file")
		injectFlt = flag.Bool("inject-fault", false, "self-test: corrupt one received value; the run must fail")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice and fail unless every end-to-end pair agrees within its bound")
	)
	flag.Parse()
	checkRegistry()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	h := capProcs()
	budget := time.Duration(*seconds * float64(time.Second))
	f := &fault{}
	f.armed.Store(*injectFlt)

	if *selfcheck {
		return selfCheck(h, root, *seed, budget)
	}

	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(*workload); ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	res := resultFile{Host: h, Seed: *seed, Seconds: *seconds}
	var attempted, failed int64
	// A single traced workload is the driver's --trace 1 run: per-layer
	// numbers only. Every other run starts with the untraced set.
	switch {
	case *trace == 1 && len(names) == 1:
	case len(names) == 1:
		wr, err := runUntraced(names[0], *seed, budget, f, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.Workloads = map[string]workloadResult{names[0]: wr}
		printWorkload(names[0], wr)
	default:
		if res.Workloads, err = runSet(root, *seed, *seconds, *injectFlt); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, wr := range res.Workloads {
		attempted += wr.Attempted
		failed += wr.Failed
	}
	if *trace == 1 {
		layers, a, fl, err := runTraced(names, *seed, budget, f, root, h, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.PerLayer = layers
		attempted += a
		failed += fl
		printLayers(layers)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	// The driver's contract: the last line of standard output is one JSON
	// object with the metrics BENCHMARK.json names and nothing else.
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lastMetric `json:"metrics"`
	}{failed == 0, max(attempted, 1), failed, make(map[string]lastMetric)}
	switch {
	case *trace == 1:
		for _, d := range perLayer {
			last.Metrics[d.Name] = lastMetric{res.PerLayer[d.Name].Value, d.Unit}
		}
	case len(names) == 1:
		for _, d := range endToEnd {
			if d.Gated {
				last.Metrics[d.Name] = lastMetric{res.Workloads[names[0]].Metrics[d.Name].Value, d.Unit}
			}
		}
	}
	for name, m := range last.Metrics {
		if !finite(m.Value) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", name)
			return 1
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if *injectFlt && !f.fired.Load() && failed == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -inject-fault found no value to corrupt")
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d checked operations failed\n", failed, attempted)
		return 1
	}
	return 0
}

type lastMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSet runs the whole untraced set, every workload in a process of its
// own, as the driver does: a workload's peak memory, its heap and npb's
// memoised serial references must not depend on what ran before it.
func runSet(root string, seed int64, seconds float64, injectFault bool) (map[string]workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := make(map[string]workloadResult)
	for _, w := range workloads {
		part := filepath.Join(root, "benchmark", "out", "part-"+w.Name+".json")
		args := []string{"-workload", w.Name, "-seed", itoa(seed), "-seconds", fmt.Sprint(seconds), "-o", part}
		if injectFault {
			args = append(args, "-inject-fault")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		// The child's table is ours too; its last line is the driver's.
		if i := bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n'); i >= 0 {
			os.Stdout.Write(out[:i+1])
		}
		rf, err := readResult(part)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (%v)", w.Name, runErr, err)
		}
		os.Remove(part)
		set[w.Name] = rf.Workloads[w.Name]
	}
	return set, nil
}

// runUntraced runs one workload with tracing off and fills in the metrics
// every workload has.
func runUntraced(name string, seed int64, budget time.Duration, f *fault, root string) (workloadResult, error) {
	w, _ := workloadByName(name)
	r := newRun(name, seed, budget, nil, f, root)
	if err := w.run(r); err != nil {
		return workloadResult{}, err
	}
	return r.result()
}

// result closes a run: failed_ops_share, and a check that the workload
// reported every metric the registry says it has, and no other.
func (r *run) result() (workloadResult, error) {
	if r.attempted < 1 {
		return workloadResult{}, fmt.Errorf("%s: no operation was checked", r.workload)
	}
	r.report("failed_ops_share", []float64{float64(r.failed) / float64(r.attempted)})
	for _, d := range endToEnd {
		m, ok := r.metrics[d.Name]
		switch {
		case d.appliesTo(r.workload) && (!ok || !finite(m.Value)):
			return workloadResult{}, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		case !d.appliesTo(r.workload) && ok:
			return workloadResult{}, fmt.Errorf("%s: metric %s is not registered for this workload", r.workload, d.Name)
		}
	}
	return workloadResult{Metrics: r.metrics, Attempted: r.attempted, Failed: r.failed, Notes: r.notes}, nil
}

func printWorkload(name string, wr workloadResult) {
	fmt.Printf("%s  (checked %d, failed %d)\n", name, wr.Attempted, wr.Failed)
	for _, d := range endToEnd {
		if m, ok := wr.Metrics[d.Name]; ok {
			fmt.Printf("  %-18s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	for _, n := range wr.Notes {
		fmt.Printf("  ! %s\n", n)
	}
}

func printLayers(layers map[string]summary) {
	fmt.Println("per-layer (traced run)")
	for _, d := range perLayer {
		m := layers[d.Name]
		fmt.Printf("  %-34s %14.6g %-6s n %-5d %s\n", d.Name, m.Value, m.Unit, m.N, d.Moves)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
