// Command fig12 regenerates the paper's Fig. 12: the eighteen benchmark
// connectors, existing (static, per-N, simplified) vs new (parametrized,
// just-in-time) compilation approach, N in {2,4,8,16,32,64}, metric =
// global execution steps within a time budget, with the pie-chart and
// per-N bar-chart summaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	reo "repro"
	"repro/internal/connlib"
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
	if *budget <= 0 {
		fmt.Fprintf(os.Stderr, "fig12: -budget must be positive (got %v)\n", *budget)
		os.Exit(2)
	}

	var nList []int
	for _, s := range strings.Split(*ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "fig12: bad N %q\n", s)
			os.Exit(2)
		}
		nList = append(nList, n)
	}
	defs := connlib.All()
	if *conns != "" {
		defs = nil
		for _, s := range strings.Split(*conns, ",") {
			d, err := connlib.ByName(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fig12:", err)
				os.Exit(1)
			}
			defs = append(defs, d)
		}
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	var runs [][]row
	for r := 0; r < max(*reps, 1); r++ {
		rows, err := sweep(defs, nList, *budget, *maxSt, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig12:", err)
			os.Exit(1)
		}
		runs = append(runs, rows)
	}
	fmt.Print(format(mergeBest(runs)))
}

// row is one cell of the Fig. 12 comparison.
type row struct {
	connector string
	n         int
	stepsNew  int64
	stepsOld  int64
	oldFailed bool
}

// classify buckets a row per the paper's legend.
func (r row) classify() string {
	switch {
	case r.oldFailed:
		return "new-compiles-old-fails"
	case r.stepsNew >= r.stepsOld:
		return "new-wins"
	case r.stepsOld <= 10*r.stepsNew:
		return "old-wins-≤10x"
	default:
		return "old-wins-≤100x"
	}
}

// sweep measures every (connector, N) cell once per approach: the new one
// (parametrized compilation, just-in-time composition) and the existing
// one (whole-product static compilation per N, with label
// simplification), which fails on connectors whose product exceeds
// maxStates.
func sweep(defs []connlib.Def, ns []int, budget time.Duration, maxStates int, progress io.Writer) ([]row, error) {
	var rows []row
	for _, d := range defs {
		for _, n := range ns {
			if progress != nil {
				fmt.Fprintf(progress, "fig12: %s N=%d\n", d.Name, n)
			}
			r := row{connector: d.Name, n: n}
			var err error
			if r.stepsNew, err = connlib.StepsIn(d, n, budget, reo.WithMode(reo.JIT)); err != nil {
				return nil, err
			}
			r.stepsOld, err = connlib.StepsIn(d, n, budget, reo.WithMode(reo.Static), reo.WithMaxStates(maxStates))
			switch {
			case errors.Is(err, reo.ErrTooLarge):
				r.oldFailed = true
			case err != nil:
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// format renders the detailed table plus the pie/bar summaries of
// Fig. 12.
func format(rows []row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %4s %14s %14s  %s\n", "connector", "N", "steps(new)", "steps(existing)", "outcome")
	for _, r := range rows {
		old := fmt.Sprintf("%d", r.stepsOld)
		if r.oldFailed {
			old = "FAIL"
		}
		fmt.Fprintf(&sb, "%-22s %4d %14d %14s  %s\n", r.connector, r.n, r.stepsNew, old, r.classify())
	}

	// Pie chart: overall percentages per class.
	total := len(rows)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.classify()]++
	}
	sb.WriteString("\nSummary (pie chart analogue):\n")
	var classes []string
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&sb, "  %-24s %5.1f%% (%d/%d)\n", c, 100*float64(counts[c])/float64(total), counts[c], total)
	}

	// Bar chart: per-N counts.
	sb.WriteString("\nPer-N (bar chart analogue):\n")
	ns := map[int]map[string]int{}
	var nsList []int
	for _, r := range rows {
		if ns[r.n] == nil {
			ns[r.n] = map[string]int{}
			nsList = append(nsList, r.n)
		}
		ns[r.n][r.classify()]++
	}
	sort.Ints(nsList)
	fmt.Fprintf(&sb, "  %6s %10s %10s %14s %14s\n", "N", "old-fails", "new-wins", "old-wins≤10x", "old-wins≤100x")
	for _, n := range nsList {
		fmt.Fprintf(&sb, "  %6d %10d %10d %14d %14d\n", n,
			ns[n]["new-compiles-old-fails"], ns[n]["new-wins"],
			ns[n]["old-wins-≤10x"], ns[n]["old-wins-≤100x"])
	}
	return sb.String()
}

// mergeBest folds repeated sweeps (-reps) into per-cell best rows: max
// steps for each approach, "old failed" only if it failed every rep. Rows
// align by index, which sweep guarantees for fixed arguments.
func mergeBest(runs [][]row) []row {
	if len(runs) == 0 {
		return nil
	}
	out := append([]row(nil), runs[0]...)
	for _, run := range runs[1:] {
		for i := range out {
			if i >= len(run) {
				break
			}
			r := run[i]
			out[i].stepsNew = max(out[i].stepsNew, r.stepsNew)
			if !r.oldFailed {
				out[i].oldFailed = false
				out[i].stepsOld = max(out[i].stepsOld, r.stepsOld)
			}
		}
	}
	return out
}
