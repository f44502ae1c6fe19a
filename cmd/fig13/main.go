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

	reo "repro"
	"repro/internal/bench"
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
		partition = flag.String("partition", "off", "partition the Reo connectors: off, components (§V-C(3) fix), or regions (buffer-boundary cut)")
		workers   = flag.Int("workers", 0, "scheduler workers for partition=regions (0 = synchronous, <0 = GOMAXPROCS)")
		fullExp   = flag.Bool("full-expansion", false, "textbook joint enumeration (reproduces the §V-C(3) blow-up)")
		backend   = flag.String("backend", "interpreted", "Reo-variant backend: interpreted (the connector engine) or generated (static per-region code, `reoc gen`)")
		jsonPath  = flag.String("json", "", "also write machine-readable results (BENCH_fig13.json schema, fig12 -json parity) to this file")
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
	case "off", "false":
	case "components", "true":
		opts = append(opts, reo.WithPartitioning(reo.PartitionComponents))
	case "regions":
		opts = append(opts, reo.WithPartitioning(reo.PartitionRegions))
		if *workers != 0 {
			opts = append(opts, reo.WithWorkers(*workers))
		}
	default:
		fmt.Fprintf(os.Stderr, "fig13: bad -partition %q (off|components|regions)\n", *partition)
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
	// Both variants run the same batched scatter/gather structure; the
	// rows land in the -json output keyed with their batch degree, so
	// batched sweeps track separately from the scalar baseline cells.
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

	var rows []bench.Fig13Row
	for _, p := range programs {
		for _, c := range classList {
			for _, n := range nList {
				for _, v := range []npb.Variant{npb.Orig, reoVariant} {
					best := bench.RunFig13(p, c, v, n)
					for r := 1; r < *reps && best.Err == nil; r++ {
						row := bench.RunFig13(p, c, v, n)
						if row.Err == nil && row.Elapsed < best.Elapsed {
							best = row
						}
					}
					rows = append(rows, best)
				}
			}
		}
	}
	fmt.Print(bench.FormatFig13(rows))
	if *jsonPath != "" {
		if err := bench.WriteFig13JSON(*jsonPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "fig13:", err)
			os.Exit(1)
		}
	}
}
