package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	reo "repro"
)

// run is everything one workload run needs: its inputs (seed, budget), the
// tracer (nil when untraced), the fault injector, and where results go.
type run struct {
	workload string
	seed     int64
	budget   time.Duration // timed phase of the whole workload
	tr       *tracer
	fault    *fault
	root     string // checkout root (holds go.mod of module repro)
	rng      *rand.Rand
	// quick is the smoke test's scale: every phase still runs, with the
	// fewest repetitions that exercise it.
	quick bool

	metrics   map[string]summary
	mu        sync.Mutex // guards the tally: concurrent clients count too
	attempted int64
	failed    int64
	notes     []string
}

func newRun(workload string, seed int64, budget time.Duration, tr *tracer, f *fault, root string) *run {
	return &run{
		workload: workload, seed: seed, budget: budget, tr: tr, fault: f, root: root,
		rng:     rand.New(rand.NewSource(seed)),
		metrics: make(map[string]summary),
	}
}

// report stores a metric as the median over its samples.
func (r *run) report(name string, samples []float64) {
	d := mustMetric(name)
	r.metrics[name] = summarize(samples, d.Unit)
}

// reportAllocs reports allocs_per_op at round2's resolution.
func (r *run) reportAllocs(perOp []float64) {
	for i, x := range perOp {
		perOp[i] = round2(x)
	}
	r.report("allocs_per_op", perOp)
}

// count adds checked operations to the run's correctness tally.
func (r *run) count(attempted, failed int64, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && why != "" && len(r.notes) < 8 {
		r.notes = append(r.notes, why)
	}
}

// part returns a share of the timed budget.
func (r *run) part(share float64) time.Duration {
	return time.Duration(float64(r.budget) * share)
}

// minSegments is the least number of equal segments a timed phase is cut
// into, so every metric is a median with quartiles.
const minSegments = 10

// reps is how many times set-ups and the deterministic layer probes
// repeat; the metric is the median.
func (r *run) reps() int {
	if r.quick {
		return 1
	}
	return 5
}

// scaled shrinks a probe's fixed work for the smoke test.
func (r *run) scaled(n int) int {
	if r.quick {
		return max(n/50, 1)
	}
	return n
}

// setupFloor is how long a workload keeps repeating a cheap set-up: a
// median over 5 sub-millisecond samples moves with the machine's mood.
const setupFloor = 100 * time.Millisecond

// repeatSetup runs setup at least reps() times and until setupFloor has
// gone by, tearing down all but the last, reports setup_s as the median and
// returns the last state.
func repeatSetup[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var times []float64
	var st T
	start := time.Now()
	for i := 0; i < r.reps() || !r.quick && time.Since(start) < setupFloor; i++ {
		if i > 0 {
			teardown(st)
		}
		// Every set-up starts from a collected heap: a collection that
		// happens to fall into a millisecond-long set-up doubles it.
		runtime.GC()
		id := r.tr.begin(-1, "harness.setup", r.workload)
		t0 := time.Now()
		var err error
		st, err = setup()
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			return st, fmt.Errorf("%s: set-up: %w", r.workload, err)
		}
	}
	r.report("setup_s", times)
	return st, nil
}

// untilBudget calls seg(i) for i = 0, 1, … until the budget is spent, and
// at least minSegments times. seg does a fixed amount of work.
func (r *run) untilBudget(budget time.Duration, seg func(i int) error) error {
	least := minSegments
	if r.quick {
		least = 2
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start) < budget; i++ {
		if err := seg(i); err != nil {
			return err
		}
	}
	return nil
}

// alternate runs a throughput segment and a latency segment in turn until
// the budget is spent. Were the phases run one after the other, a change in
// the host's speed mid-run would move one metric wholesale; alternating, it
// shows in both metrics' quartiles and the medians keep to the majority.
func (r *run) alternate(throughput, latency func(i int) error) error {
	return r.untilBudget(r.budget, func(i int) error {
		if err := throughput(i); err != nil {
			return err
		}
		return latency(i)
	})
}

// calibrate picks how many iterations of a loop body make one segment: it
// times a probe of n0 iterations and scales so that the phase's budget
// holds twice minSegments of them.
func calibrate(n0 int, probe func(n int) time.Duration, budget time.Duration) int {
	d := probe(n0)
	if d <= 0 {
		d = time.Nanosecond
	}
	n := int(float64(n0) * float64(budget) / (2 * minSegments) / float64(d))
	return max(n, n0/16, 1)
}

// compileOne compiles a one-definition program down to its template.
func compileOne(src, name string) (*reo.Connector, error) {
	prog, err := reo.Compile(src)
	if err != nil {
		return nil, err
	}
	return prog.Connector(name)
}

// round2 rounds to two decimals: the resolution of the metrics that must
// repeat exactly although the Go runtime's own background allocations
// (timers, the netpoller) land in a segment now and then.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads VmHWM of a process from /proc (0 = this process).
func peakRSSMB(pid int) (float64, error) {
	p := "self"
	if pid > 0 {
		p = strconv.Itoa(pid)
	}
	data, err := os.ReadFile("/proc/" + p + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", p)
}

// latencySummary reports op_p50_us, and op_p99_us where the registry has it
// for this workload, from per-segment sample sets: each segment yields its
// own percentile, and the metric is the median over segments, which is far
// steadier than one pooled p99.
func (r *run) latencySummary(segments [][]float64) {
	var p50, p99 []float64
	for _, s := range segments {
		if len(s) == 0 {
			continue
		}
		p50 = append(p50, percentile(s, 50))
		p99 = append(p99, percentile(s, 99))
	}
	r.report("op_p50_us", p50)
	if mustMetric("op_p99_us").appliesTo(r.workload) {
		r.report("op_p99_us", p99)
	}
}

// findRoot locates the checkout root: the nearest directory at or above
// the working directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro at or above the working directory")
		}
		dir = parent
	}
}

func itoa(x int64) string { return strconv.FormatInt(x, 10) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
