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
package main

import (
	"flag"
	"fmt"
	"os"

	reo "repro"
	"repro/internal/ast"
	"repro/internal/ca"
	"repro/internal/check"
	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/flatten"
	"repro/internal/gen"
	"repro/internal/normalize"
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
				if info.Constituents == 0 {
					// No engine: a relay spliced into its chain's link.
					fmt.Printf("  region %d -> spliced relay (no engine)\n", ri)
					continue
				}
				kind := ""
				if info.Endpoint {
					kind = ", endpoint (no plan)"
				}
				fmt.Printf("  region %d -> worker %d (%d constituents, %d link endpoints%s)\n",
					ri, info.Worker, info.Constituents, info.Links, kind)
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
	backends := fs.String("backends", "all", `lanes to compare: "all" or comma-separated of gen, runtime, batch2, off, aot`)
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
  reoc explore  [-seed S] [-rounds R] [-max-ops K] [-max-prims P] [-backends list] [-shrink] [-selfcheck-mutate] [-v]`)
	os.Exit(2)
}
