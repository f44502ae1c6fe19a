// Command fig12 regenerates the paper's Fig. 12: the eighteen benchmark
// connectors, existing (static, per-N, simplified) vs new (parametrized,
// just-in-time) compilation approach, N in {2,4,8,16,32,64}, metric =
// global execution steps within a time budget, with the pie-chart and
// per-N bar-chart summaries.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		budget  = flag.Duration("budget", 500*time.Millisecond, "measurement budget per (connector, N, approach)")
		ns      = flag.String("N", "2,4,8,16,32,64", "comma-separated task counts")
		conns   = flag.String("connectors", "", "comma-separated connector names (default: all eighteen)")
		maxSt   = flag.Int("max-static-states", 1<<16, "existing compiler's automaton capacity")
		reps    = flag.Int("reps", 1, "repetitions of the sweep; best steps per cell reported")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	cfg := bench.Fig12Config{
		Budget:          *budget,
		MaxStaticStates: *maxSt,
	}
	for _, s := range strings.Split(*ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "fig12: bad N %q\n", s)
			os.Exit(2)
		}
		cfg.Ns = append(cfg.Ns, n)
	}
	if *conns != "" {
		for _, s := range strings.Split(*conns, ",") {
			cfg.Connectors = append(cfg.Connectors, strings.TrimSpace(s))
		}
	}
	progress := (os.Stderr)
	if !*verbose {
		progress = nil
	}
	if *reps < 1 {
		*reps = 1
	}
	var runs [][]bench.Fig12Row
	for r := 0; r < *reps; r++ {
		rows, err := bench.RunFig12(cfg, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig12:", err)
			os.Exit(1)
		}
		runs = append(runs, rows)
	}
	rows := bench.MergeBest(runs)
	fmt.Print(bench.FormatFig12(rows))
}
