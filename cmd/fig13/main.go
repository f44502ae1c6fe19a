// Command fig13 regenerates the paper's Fig. 13: NPB run times of the
// original (hand-written channels) programs vs their Reo-based variants,
// per class and slave count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	reo "repro"
	"repro/internal/genlib/msfabric"
	"repro/internal/npb"
)

func main() {
	var (
		progs     = flag.String("prog", "CG,LU", "comma-separated programs (EP,IS,CG,MG,FT,LU,BT,SP or 'all')")
		classes   = flag.String("class", "S,W", "comma-separated classes (S,W,A,B,C)")
		ns        = flag.String("N", "2,4,8", "comma-separated slave counts")
		reps      = flag.Int("reps", 1, "repetitions per configuration (best time reported)")
		batch     = flag.Int("batch", 1, "scatter/gather batching degree: work units per slave per round, moved as one batched port operation (1 = the paper's structure)")
		partition = flag.String("partition", "off", "partition the Reo connectors: off, or regions (the §V-C(3) fix: connected components, further cut at buffers)")
		workers   = flag.Int("workers", 0, "scheduler workers for partition=regions (0 = synchronous, <0 = GOMAXPROCS)")
		fullExp   = flag.Bool("full-expansion", false, "textbook joint enumeration (reproduces the §V-C(3) blow-up)")
		backend   = flag.String("backend", "interpreted", "Reo-variant backend: interpreted (the connector engine) or generated (static per-region code, `reoc gen`)")
	)
	flag.Parse()

	reoVariant := npb.Reo
	switch *backend {
	case "interpreted":
	case "generated":
		reoVariant = npb.Gen
	default:
		fmt.Fprintf(os.Stderr, "fig13: bad -backend %q (interpreted|generated)\n", *backend)
		os.Exit(2)
	}

	var opts []reo.ConnectOption
	var genOpts []msfabric.Option
	switch *partition {
	case "off":
	case "regions":
		opts = append(opts, reo.WithPartitioning(reo.PartitionRegions))
		if *workers != 0 {
			opts = append(opts, reo.WithWorkers(*workers))
		}
	default:
		fmt.Fprintf(os.Stderr, "fig13: bad -partition %q (off|regions)\n", *partition)
		os.Exit(2)
	}
	if *fullExp {
		opts = append(opts, reo.WithFullExpansion(true))
	}
	// The generated runtime always runs region-partitioned; of the
	// interpreted knobs only the worker pool carries over.
	if *workers != 0 {
		genOpts = append(genOpts, msfabric.WithWorkers(*workers))
	}
	npb.DefaultReoOptions = npb.ReoCommOptions{Opts: opts, GenOpts: genOpts}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "fig13: bad -batch %d (need >= 1)\n", *batch)
		os.Exit(2)
	}
	// Both variants run the same batched scatter/gather structure; each
	// row carries its batch degree in the table.
	npb.DefaultBatch = *batch

	var programs []string
	if *progs == "all" {
		for _, p := range npb.Programs() {
			programs = append(programs, p.Name())
		}
	} else {
		for _, s := range strings.Split(*progs, ",") {
			programs = append(programs, strings.TrimSpace(s))
		}
	}
	var classList []npb.Class
	for _, s := range strings.Split(*classes, ",") {
		c, err := npb.ParseClass(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig13:", err)
			os.Exit(2)
		}
		classList = append(classList, c)
	}
	var nList []int
	for _, s := range strings.Split(*ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "fig13: bad N %q\n", s)
			os.Exit(2)
		}
		nList = append(nList, n)
	}

	var rows []fig13Row
	for _, p := range programs {
		for _, c := range classList {
			for _, n := range nList {
				for _, v := range []npb.Variant{npb.Orig, reoVariant} {
					best := runFig13(p, c, v, n)
					for r := 1; r < *reps && best.Err == nil; r++ {
						row := runFig13(p, c, v, n)
						if row.Err == nil && row.Elapsed < best.Elapsed {
							best = row
						}
					}
					rows = append(rows, best)
				}
			}
		}
	}
	fmt.Print(formatFig13(rows))
}

// fig13Row is one NPB measurement.
type fig13Row struct {
	Program string
	Class   npb.Class
	Variant npb.Variant
	Slaves  int
	// Batch is the scatter/gather batching degree the run used
	// (npb.DefaultBatch at measurement time; 1 = the paper's structure).
	Batch   int
	Elapsed time.Duration
	Steps   int64
	Err     error
}

// runFig13 measures one NPB configuration under the current
// npb.DefaultBatch (stamped into the row so batched runs stay
// distinguishable in the table).
func runFig13(program string, class npb.Class, variant npb.Variant, slaves int) fig13Row {
	row := fig13Row{Program: program, Class: class, Variant: variant, Slaves: slaves, Batch: npb.DefaultBatch}
	prog, err := npb.ProgramByName(program)
	if err != nil {
		row.Err = err
		return row
	}
	start := time.Now()
	res, err := prog.Run(class, variant, slaves)
	row.Elapsed = time.Since(start)
	if err != nil {
		row.Err = err
		return row
	}
	row.Steps = res.Steps
	return row
}

// formatFig13 renders the measurement table.
func formatFig13(rows []fig13Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-6s %-8s %4s %6s %14s %12s\n", "program", "class", "variant", "N", "batch", "time", "conn-steps")
	for _, r := range rows {
		batch := r.Batch
		if batch < 1 {
			batch = 1
		}
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-8s %-6s %-8s %4d %6d %14s %12s (%v)\n",
				r.Program, r.Class, r.Variant, r.Slaves, batch, "ERROR", "-", r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-8s %-6s %-8s %4d %6d %14s %12d\n",
			r.Program, r.Class, r.Variant, r.Slaves, batch, r.Elapsed.Round(time.Microsecond), r.Steps)
	}
	return sb.String()
}
