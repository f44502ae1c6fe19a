// Command reoc is the connector compiler front end: it parses, checks,
// and inspects protocol programs in the textual syntax — the counterpart
// of the paper's text-to-Java compiler plug-in (Fig. 11), with the
// automaton dump and model checker attached.
//
// Usage:
//
//	reoc check file.reo
//	reoc flatten file.reo Connector
//	reoc automata file.reo Connector [-n N]
//	reoc plan file.reo Connector [-n N]
//	reoc regions file.reo Connector [-n N] [-workers W]
//	reoc gen file.reo Connector [-o dir] [-pkg name] [-force]
//	reoc verify file.reo Connector [-n N]
//	reoc explore [-seed S] [-rounds R] [-max-ops K] [-max-prims P] [-backends list] [-shrink] [-selfcheck-mutate]
//	reoc bench-compare baseline.json current.json... [-threshold 0.25]
//	reoc bench-batch out.json [-stages S] [-items I] [-batches 1,8,64,512] [-reps R]
//	reoc bench-gen out.json [-items I] [-lanes L] [-npb-slaves K] [-reps R]
//	reoc bench-instances out.json [-cycles C] [-instances K] [-rounds P] [-reps R]
//	reoc bench-remote out.json [-lanes L] [-mem-items I] [-tcp-items J] [-reps R]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	reo "repro"
	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/ca"
	"repro/internal/check"
	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/flatten"
	"repro/internal/gen"
	"repro/internal/normalize"
	"repro/internal/npb"
	"repro/internal/parser"
	"repro/internal/sema"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "explore" {
		exploreCmd(os.Args[2:])
		return
	}
	if len(os.Args) < 3 {
		usage()
	}
	cmd := os.Args[1]
	file := os.Args[2]
	rest := os.Args[3:]

	if cmd == "bench-compare" {
		benchCompare(file, rest)
		return
	}
	if cmd == "bench-batch" {
		benchBatch(file, rest)
		return
	}
	if cmd == "bench-gen" {
		benchGen(file, rest)
		return
	}
	if cmd == "bench-instances" {
		benchInstances(file, rest)
		return
	}
	if cmd == "bench-remote" {
		benchRemote(file, rest)
		return
	}
	if cmd == "gen" {
		os.Exit(gen.RunCLI(append([]string{file}, rest...), os.Stdout, os.Stderr))
	}

	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "check":
		f, err := parser.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		info, err := sema.Check(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: OK (%d definitions, %d mains)\n", file, len(info.Defs), len(f.Mains))
		for _, d := range f.Defs {
			fmt.Printf("  %s(%d tails; %d heads)\n", d.Name, len(d.Tails), len(d.Heads))
		}
	case "flatten":
		name, _ := parseRest(rest)
		f, err := parser.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		info, err := sema.Check(f)
		if err != nil {
			fatal(err)
		}
		flat, err := flatten.Flatten(info, name)
		if err != nil {
			fatal(err)
		}
		fmt.Println("# flattened:")
		fmt.Println(ast.RenderExpr(flat, ""))
		norm := normalize.Normalize(flat)
		fmt.Println("\n# normalized:")
		fmt.Println(ast.RenderExpr(norm, ""))
		fmt.Printf("\n# normal form: %v\n", normalize.IsNormal(norm))
	case "automata":
		name, n := parseRest(rest)
		inst := connectInstance(string(src), name, n)
		defer inst.Close()
		fmt.Printf("# %s instantiated with N=%d: %d constituent automata\n\n", name, n, inst.Constituents())
		for _, a := range inst.Automata() {
			fmt.Println(a)
		}
	case "plan":
		// Dump the compiled transition plans of the initial composite
		// state: what the engine actually executes per fired step after
		// just-in-time expansion.
		name, n := parseRest(rest)
		inst := connectInstance(string(src), name, n)
		defer inst.Close()
		auts := inst.Automata()
		u := inst.Universe()
		states := make([]int32, len(auts))
		for i, a := range auts {
			states[i] = a.Initial
		}
		steps := ca.NewExpander(auts, ca.ExpandConnected).Expand(states, nil)
		fmt.Printf("# %s (N=%d): %d joint transitions from the initial composite state\n", name, n, len(steps))
		for _, c := range steps {
			t := &ca.Transition{Sync: c.Sync, Guards: c.Guards, Acts: c.Acts}
			pl := ca.CompilePlan(t, u.DirOf)
			fmt.Printf("  %s\n", pl.Dump(u))
		}
	case "regions":
		// Dump the asynchronous-region partition: which constituents are
		// buffer shapes cut into links, and which synchronous regions
		// remain — what WithPartitioning(PartitionRegions) executes.
		name, n, workers := parseRegionsRest(rest)
		// With -workers the instance itself runs region-partitioned on
		// the requested pool, so the assignment report reads the real
		// scheduler state; the plan dump works on the same instance
		// either way (the constituent automata do not depend on the
		// connect options).
		var opts []reo.ConnectOption
		if workers != 0 {
			opts = append(opts,
				reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(workers))
		}
		inst := connectInstanceOpts(string(src), name, n, opts...)
		defer inst.Close()
		plan := ca.PlanRegions(inst.Universe(), inst.Automata())
		fmt.Printf("# %s (N=%d): %s", name, n, plan.Dump(inst.Universe(), inst.Automata()))
		if workers != 0 {
			fmt.Printf("\n# worker assignment (%d workers):\n", inst.Workers())
			for ri, info := range inst.Regions() {
				fmt.Printf("  region %d -> worker %d (%d constituents, %d link endpoints)\n",
					ri, info.Worker, info.Constituents, info.Links)
			}
		}
	case "verify":
		name, n := parseRest(rest)
		inst := connectInstance(string(src), name, n)
		defer inst.Close()
		res, err := check.Analyze(inst.Universe(), inst.Automata(), check.Limits{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reachable composite states: %d\n", res.States)
		fmt.Printf("global steps explored:      %d\n", res.Transitions)
		fmt.Printf("deadlock-free:              %v\n", res.DeadlockFree())
		for _, d := range res.Deadlocks {
			fmt.Printf("  deadlock state: %s\n", d)
		}
		fmt.Printf("all boundary ports live:    %v\n", res.AllPortsLive())
		for _, p := range res.DeadPorts {
			fmt.Printf("  dead port: %s\n", p)
		}
		if !res.DeadlockFree() || !res.AllPortsLive() {
			os.Exit(1)
		}
	default:
		usage()
	}
}

// benchCompare is the CI perf-regression gate: compare one or more
// benchmark JSON artifacts (BENCH_fig12.json / BENCH_fig13.json /
// bench-batch schemas) against a checked-in baseline and exit non-zero
// when any cell's rate dropped by more than the threshold (or vanished).
// Multiple current artifacts concatenate, so a baseline can hold cells
// produced by different sweeps (the fig12 sweep and the batched-port
// sweep) and gate them in one invocation.
func benchCompare(baselinePath string, rest []string) {
	var currentPaths []string
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		currentPaths = append(currentPaths, rest[0])
		rest = rest[1:]
	}
	if len(currentPaths) == 0 {
		usage()
	}
	fs := flag.NewFlagSet("bench-compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.25, "allowed fractional rate drop per cell")
	minRows := fs.Int("min-rows", 1, "minimum rows the current artifacts must contain together (guards against an empty run passing)")
	fs.Parse(rest)

	baseline, err := bench.ReadCompareRows(baselinePath)
	if err != nil {
		fatal(err)
	}
	// An empty (or all-unmeasured) baseline gates nothing: every
	// comparison would pass vacuously, which is indistinguishable from a
	// healthy run in CI logs. Fail loudly instead.
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: baseline %s has no rows — the gate would pass vacuously; regenerate the baseline\n", baselinePath)
		os.Exit(1)
	}
	if len(bench.BestRates(baseline)) == 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: baseline %s has no measured cells (every rate is 0) — the gate would pass vacuously; regenerate the baseline\n", baselinePath)
		os.Exit(1)
	}
	var current []bench.CompareRow
	for _, path := range currentPaths {
		rows, err := bench.ReadCompareRows(path)
		if err != nil {
			fatal(err)
		}
		current = append(current, rows...)
	}
	if len(current) == 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: current artifacts (%s) have no rows — the benchmark run produced nothing to gate\n", strings.Join(currentPaths, "+"))
		os.Exit(1)
	}
	if len(current) < *minRows {
		fmt.Fprintf(os.Stderr, "bench-compare: current artifacts have %d rows, need >= %d\n", len(current), *minRows)
		os.Exit(1)
	}
	regs := bench.CompareRates(baseline, current, *threshold)
	fmt.Printf("bench-compare: %d baseline cells vs %s (threshold %.0f%% drop)\n",
		len(bench.BestRates(baseline)), strings.Join(currentPaths, "+"), 100**threshold)
	if ratio, cells := bench.GeomeanRatio(baseline, current); cells > 0 {
		fmt.Printf("bench-compare: geomean current/baseline = %.3fx over %d cells\n", ratio, cells)
	}
	if len(regs) == 0 {
		fmt.Println("bench-compare: OK — no cell regressed")
		return
	}
	for _, r := range regs {
		fmt.Printf("  REGRESSION %s\n", r)
	}
	// Name the offending cells in the error itself: CI surfaces stderr,
	// and "3 cell(s) regressed" without the keys forces a dig through the
	// full log to learn which approach/connector/N combination broke.
	keys := make([]string, len(regs))
	for i, r := range regs {
		keys[i] = r.Key
	}
	fmt.Fprintf(os.Stderr, "bench-compare: %d cell(s) regressed: %s\n", len(regs), strings.Join(keys, ", "))
	os.Exit(1)
}

// benchBatch runs the batched-port throughput sweep (the workload of
// BenchmarkBatchedThroughput) and writes machine-readable rows for the
// perf-regression gate: items/s through the stage-coupled Fifo1 pipeline
// per batch size, best of -reps runs.
func benchBatch(outPath string, rest []string) {
	fs := flag.NewFlagSet("bench-batch", flag.ExitOnError)
	stages := fs.Int("stages", 4, "pipeline stages")
	items := fs.Int("items", 1<<14, "items moved per measurement")
	batches := fs.String("batches", "1,8,64,512", "comma-separated batch sizes")
	reps := fs.Int("reps", 3, "repetitions per batch size (best run reported; use >= 3 for CI gating)")
	fs.Parse(rest)
	if *reps < 1 {
		*reps = 1
	}

	var results []bench.BatchResult
	for _, s := range strings.Split(*batches, ",") {
		batch, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || batch < 1 {
			fmt.Fprintf(os.Stderr, "bench-batch: bad batch size %q\n", s)
			os.Exit(2)
		}
		best, err := bench.RunBatchThroughput(*stages, *items, batch)
		if err != nil {
			fatal(err)
		}
		for r := 1; r < *reps; r++ {
			res, err := bench.RunBatchThroughput(*stages, *items, batch)
			if err != nil {
				fatal(err)
			}
			if res.Elapsed < best.Elapsed {
				best = res
			}
		}
		fmt.Printf("bench-batch: stages=%d items=%d batch=%-4d %12.0f items/s (%d conn steps)\n",
			best.Stages, best.Items, best.Batch, best.ItemsPerSec(), best.Steps)
		results = append(results, best)
	}
	if err := bench.WriteBatchJSON(outPath, results); err != nil {
		fatal(err)
	}
}

// benchGen runs the generated-vs-interpreted comparisons and writes
// fig12-schema rows for the perf-regression gate: the interpreted
// FireSteady lane, the n-lane RegionScaling fabric on both backends
// (interpreted region partitioning vs the internal/genlib/fabric
// package), and one NPB program on the generated fabric — best of -reps
// runs each.
func benchGen(outPath string, rest []string) {
	fs := flag.NewFlagSet("bench-gen", flag.ExitOnError)
	items := fs.Int("items", 1<<17, "values moved end to end per measurement")
	lanes := fs.Int("lanes", 16, "fabric width of the RegionScaling cells")
	fabricItems := fs.Int("fabric-items", 1<<14, "values moved per lane in the RegionScaling cells")
	npbSlaves := fs.Int("npb-slaves", 4, "slave count of the generated NPB cell")
	reps := fs.Int("reps", 3, "repetitions (best run reported; use >= 3 for CI gating)")
	fs.Parse(rest)
	if *reps < 1 {
		*reps = 1
	}
	bestOf := func(run func() ([]bench.GenResult, error)) []bench.GenResult {
		best, err := run()
		if err != nil {
			fatal(err)
		}
		for r := 1; r < *reps; r++ {
			res, err := run()
			if err != nil {
				fatal(err)
			}
			for i := range best {
				if res[i].Elapsed < best[i].Elapsed {
					best[i] = res[i]
				}
			}
		}
		return best
	}
	var results []bench.GenResult
	results = append(results, bestOf(func() ([]bench.GenResult, error) {
		res, err := bench.RunGenSteady(*items)
		return []bench.GenResult{res}, err
	})...)
	results = append(results, bestOf(func() ([]bench.GenResult, error) {
		return bench.RunGenRegionScaling(*lanes, *fabricItems)
	})...)
	results = append(results, bestOf(func() ([]bench.GenResult, error) {
		res, err := bench.RunGenNPB("EP", npb.ClassS, *npbSlaves)
		return []bench.GenResult{res}, err
	})...)
	for _, r := range results {
		fmt.Printf("bench-gen: %-12s %-8s N=%-3d %12.0f steps/s\n",
			r.Approach, r.Connector, r.N, r.StepsPerSec())
	}
	if err := bench.WriteGenJSON(outPath, results); err != nil {
		fatal(err)
	}
}

// benchInstances runs the multi-instance serving cells — InstanceChurn
// (full Connect/fire/Close cycles, dedicated pool vs shared runtime
// with pooled reuse) and ManyInstances (round-robin fires across many
// live instances on the shared runtime) — and writes perf-gate rows,
// best of -reps runs per cell.
func benchInstances(outPath string, rest []string) {
	fs := flag.NewFlagSet("bench-instances", flag.ExitOnError)
	cycles := fs.Int("cycles", 2000, "Connect/fire/Close cycles per churn measurement")
	instances := fs.Int("instances", 10000, "live instances for the many-instances cell")
	rounds := fs.Int("rounds", 10, "round-robin passes over the live instances")
	reps := fs.Int("reps", 3, "repetitions per cell (best run reported; use >= 3 for CI gating)")
	fs.Parse(rest)
	if *reps < 1 {
		*reps = 1
	}

	run := func(f func() (bench.InstanceResult, error)) bench.InstanceResult {
		best, err := f()
		if err != nil {
			fatal(err)
		}
		for r := 1; r < *reps; r++ {
			res, err := f()
			if err != nil {
				fatal(err)
			}
			if res.Elapsed < best.Elapsed {
				best = res
			}
		}
		return best
	}
	results := []bench.InstanceResult{
		run(func() (bench.InstanceResult, error) { return bench.RunInstanceChurn(*cycles, false) }),
		run(func() (bench.InstanceResult, error) { return bench.RunInstanceChurn(*cycles, true) }),
		run(func() (bench.InstanceResult, error) { return bench.RunManyInstances(*instances, *rounds) }),
	}
	for _, r := range results {
		fmt.Printf("bench-instances: %-15s instances=%-6d %12.0f ops/s\n",
			r.Approach, r.Instances, r.OpsPerSec())
	}
	if err := bench.WriteInstanceJSON(outPath, results); err != nil {
		fatal(err)
	}
}

// benchRemote runs the region-link transport cells — the lane connector
// in-process (transport mem) and split across two TCP-joined instances
// over loopback (transport tcp, at one lane and at -lanes lanes) — and
// writes perf-gate rows, best of -reps runs per cell. The tcp cells are
// round-trip-bound by design (a cut Fifo1 keeps its planned capacity of
// one end to end), so their rates gate the wire path's constant
// factors, not bulk bandwidth. The payload sweep runs each tcp shape
// twice: small ints (framing and round-trip cost) and 1 KiB byte
// slices (bulk encode and buffer reuse).
func benchRemote(outPath string, rest []string) {
	fs := flag.NewFlagSet("bench-remote", flag.ExitOnError)
	lanes := fs.Int("lanes", 4, "lane count of the multi-lane cells")
	memItems := fs.Int("mem-items", 1<<14, "items moved per mem measurement")
	tcpItems := fs.Int("tcp-items", 1<<11, "items moved per tcp measurement (round-trip bound, keep small)")
	reps := fs.Int("reps", 3, "repetitions per cell (best run reported; use >= 3 for CI gating)")
	fs.Parse(rest)
	if *reps < 1 {
		*reps = 1
	}

	run := func(transport, payload string, lanes, items int) bench.RemoteResult {
		best, err := bench.RunRemoteLinkPayload(transport, payload, lanes, items)
		if err != nil {
			fatal(err)
		}
		for r := 1; r < *reps; r++ {
			res, err := bench.RunRemoteLinkPayload(transport, payload, lanes, items)
			if err != nil {
				fatal(err)
			}
			if res.Elapsed < best.Elapsed {
				best = res
			}
		}
		return best
	}
	results := []bench.RemoteResult{
		run("mem", bench.PayloadInt, *lanes, *memItems),
		run("tcp", bench.PayloadInt, 1, *tcpItems / *lanes),
		run("tcp", bench.PayloadInt, *lanes, *tcpItems),
		run("tcp", bench.PayloadBulk, 1, *tcpItems / *lanes),
		run("tcp", bench.PayloadBulk, *lanes, *tcpItems),
	}
	for _, r := range results {
		fmt.Printf("bench-remote: transport=%-4s payload=%-4s lanes=%-3d %12.0f items/s (%d conn steps)\n",
			r.Transport, r.Payload, r.Lanes, r.ItemsPerSec(), r.Steps)
	}
	if err := bench.WriteRemoteJSON(outPath, results); err != nil {
		fatal(err)
	}
}

// exploreCmd runs the adversarial scenario engine (internal/explore):
// seeded random connectors through the real compile pipeline, driven
// over randomized-but-deterministic schedules across the execution lane
// matrix. On divergence it prints the (shrunk) failing case and a
// one-line repro command and exits 1. With -selfcheck-mutate the
// candidate-ordering off-by-one is injected into the generated lane and
// the run must detect it (exit 0 on detection — the harness's own
// mutation test).
func exploreCmd(rest []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "base seed; round 0 runs the base seed itself, so -seed X -rounds 1 replays a reported round exactly")
	rounds := fs.Int("rounds", 50, "exploration rounds")
	maxOps := fs.Int("max-ops", 24, "schedule token budget per round")
	maxPrims := fs.Int("max-prims", 8, "connector primitive budget per round")
	backends := fs.String("backends", "all", `lanes to compare: "all" or comma-separated of gen, workers, runtime, batch2, off, components, aot`)
	shrink := fs.Bool("shrink", true, "minimize the failing case before reporting")
	selfcheck := fs.Bool("selfcheck-mutate", false, "inject the candidate-ordering mutation into the generated lane; the run must detect it")
	verbose := fs.Bool("v", false, "per-round progress")
	fs.Parse(rest)

	opt := explore.Options{
		Seed:     *seed,
		Rounds:   *rounds,
		MaxOps:   *maxOps,
		MaxPrims: *maxPrims,
		Backends: *backends,
		Shrink:   *shrink,
		Mutate:   *selfcheck,
	}
	if *verbose {
		opt.Log = func(format string, args ...any) {
			fmt.Printf("explore: "+format+"\n", args...)
		}
	}
	rep, err := explore.Run(opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("explore: seed=%d rounds=%d orders=%d lane-runs=%d skipped=%d gen-regions=%d\n",
		*seed, rep.Rounds, rep.Orders, rep.LaneRuns, rep.Skipped, rep.GenRegions)
	if *selfcheck {
		if rep.Failure == nil {
			fmt.Fprintf(os.Stderr, "explore: selfcheck FAILED — injected mutation not detected in %d rounds\n", rep.Rounds)
			os.Exit(1)
		}
		fmt.Printf("explore: selfcheck OK — injected mutation detected on lane %s\n", rep.Failure.Lane)
		fmt.Print(explore.FormatFailure(rep.Failure))
		return
	}
	if rep.Failure != nil {
		fmt.Fprint(os.Stderr, explore.FormatFailure(rep.Failure))
		os.Exit(1)
	}
	fmt.Println("explore: OK — no divergence")
}

// connectInstance compiles the named connector and instantiates every
// array parameter at length n.
func connectInstance(src, name string, n int) *reo.Instance {
	return connectInstanceOpts(src, name, n)
}

func connectInstanceOpts(src, name string, n int, opts ...reo.ConnectOption) *reo.Instance {
	prog, err := reo.Compile(src)
	if err != nil {
		fatal(err)
	}
	conn, err := prog.Connector(name)
	if err != nil {
		fatal(err)
	}
	lengths := map[string]int{}
	for _, p := range connTemplateArrays(conn.Template()) {
		lengths[p] = n
	}
	inst, err := conn.Connect(lengths, opts...)
	if err != nil {
		fatal(err)
	}
	return inst
}

func connTemplateArrays(t *compile.Template) []string { return t.ArrayParams() }

func parseRest(rest []string) (name string, n int) {
	if len(rest) < 1 {
		usage()
	}
	name = rest[0]
	fs := flag.NewFlagSet("reoc", flag.ExitOnError)
	np := fs.Int("n", 3, "array length for every array parameter")
	fs.Parse(rest[1:])
	return name, *np
}

// parseRegionsRest additionally accepts -workers for the regions
// subcommand (0 = plan only; <0 = GOMAXPROCS).
func parseRegionsRest(rest []string) (name string, n, workers int) {
	if len(rest) < 1 {
		usage()
	}
	name = rest[0]
	fs := flag.NewFlagSet("reoc", flag.ExitOnError)
	np := fs.Int("n", 3, "array length for every array parameter")
	wp := fs.Int("workers", 0, "also report scheduler worker assignment for this pool size (<0 = GOMAXPROCS)")
	fs.Parse(rest[1:])
	return name, *np, *wp
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reoc:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  reoc check    file.reo
  reoc flatten  file.reo Connector
  reoc automata file.reo Connector [-n N]
  reoc plan     file.reo Connector [-n N]
  reoc regions  file.reo Connector [-n N] [-workers W]
  reoc gen      file.reo Connector [-o dir] [-pkg name] [-force]
  reoc verify   file.reo Connector [-n N]
  reoc explore  [-seed S] [-rounds R] [-max-ops K] [-max-prims P] [-backends list] [-shrink] [-selfcheck-mutate] [-v]
  reoc bench-compare baseline.json current.json... [-threshold 0.25] [-min-rows K]
  reoc bench-batch out.json [-stages S] [-items I] [-batches 1,8,64,512] [-reps R]
  reoc bench-gen out.json [-items I] [-lanes L] [-npb-slaves K] [-reps R]
  reoc bench-instances out.json [-cycles C] [-instances K] [-rounds P] [-reps R]
  reoc bench-remote out.json [-lanes L] [-mem-items I] [-tcp-items J] [-reps R]`)
	os.Exit(2)
}
