// Pipeline: N worker stages connected by buffered lanes, with a
// sequencer-gated, ordered merge of progress reports into a monitor —
// two protocols composed in one program, each a separate module.
//
// Stage i transforms every item (here: multiply-accumulate on integers)
// and passes it on; every stage also reports each processed item to a
// monitor, and the connector — not the tasks — guarantees the monitor
// sees reports in stage order for every item.
//
// The run executes once in the default single-engine mode and once under
// WithPartitioning(PartitionRegions): the lanes protocol splits at its
// buffers into concurrently firing regions (one per stage boundary), and
// Instance.Regions() exposes the per-region execution counters.
//
// A second, quiet phase compares coordination throughput of the same
// Lanes protocol with scalar port operations vs batched ones
// (SendBatch/RecvBatch, -batch items per operation), printing steps/s
// side by side: the batched run pays one engine-lock registration and
// one completion handshake per batch instead of per item.
//
//	go run ./examples/pipeline -n 4 -items 5 -batch 64
package main

import (
	"flag"
	"fmt"
	"log"
	reo "repro"
	"repro/internal/bench"
)

const protocol = `
// Stage-to-stage lanes: src feeds stage 1, stage i feeds i+1, stage N
// feeds the sink. One buffered lane per hop.
Lanes(src,out[];in[],snk) =
    Fifo1(src;in[1])
    mult prod (i:1..#out-1) Fifo1(out[i];in[i+1])
    mult Fifo1(out[#out];snk)

// Ordered progress reports: per item, the monitor must receive the
// stage-1 report first, then stage 2's, ... — an Alternator-style merge.
Reports(rep[];mon) =
    prod (i:1..#rep) Fifo1(rep[i];f[i])
    mult Merger(f[1..#rep];mon)
    mult Seq(f[1..#rep];)
`

func main() {
	n := flag.Int("n", 4, "number of pipeline stages")
	items := flag.Int("items", 5, "items pushed through the pipeline")
	batch := flag.Int("batch", 64, "batch size of the scalar-vs-batched throughput comparison")
	benchItems := flag.Int("bench-items", 50000, "items moved per throughput measurement")
	flag.Parse()

	if *batch < 1 || *benchItems < 1 {
		log.Fatalf("pipeline: -batch and -bench-items must be >= 1 (got %d, %d)", *batch, *benchItems)
	}
	prog, err := reo.Compile(protocol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== single engine (PartitionOff) ==")
	run(prog, *n, *items, reo.PartitionOff)
	fmt.Println("\n== asynchronous regions (PartitionRegions) ==")
	run(prog, *n, *items, reo.PartitionRegions)
	fmt.Println("\n== worker scheduler (PartitionRegions + WithWorkers) ==")
	run(prog, *n, *items, reo.PartitionRegions, reo.WithWorkers(-1))

	fmt.Printf("\n== scalar vs batched ports (%d stages, %d items) ==\n", *n, *benchItems)
	scalarRate := throughput(*n, *benchItems, 1)
	batchedRate := throughput(*n, *benchItems, *batch)
	fmt.Printf("scalar  (batch=1):   %12.0f steps/s\n", scalarRate)
	fmt.Printf("batched (batch=%d): %12.0f steps/s  (%.1fx)\n", *batch, batchedRate, batchedRate/scalarRate)
}

// throughput runs the shared batched-pipeline workload (the same pump
// behind BenchmarkBatchedThroughput) and returns global execution steps
// per second.
func throughput(n, items, batch int) float64 {
	res, err := bench.RunBatchThroughput(n, items, batch)
	if err != nil {
		log.Fatal(err)
	}
	return float64(res.Steps) / res.Elapsed.Seconds()
}

func run(prog *reo.Program, n, items int, mode reo.PartitionMode, extra ...reo.ConnectOption) {
	opts := append([]reo.ConnectOption{reo.WithPartitioning(mode)}, extra...)
	lanes, err := prog.Connector("Lanes")
	if err != nil {
		log.Fatal(err)
	}
	lanesInst, err := lanes.Connect(map[string]int{"out": n, "in": n}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer lanesInst.Close()
	reports, err := prog.Connector("Reports")
	if err != nil {
		log.Fatal(err)
	}
	repInst, err := reports.Connect(map[string]int{"rep": n}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer repInst.Close()

	done := make(chan struct{})

	// Stages: pure computation plus port operations.
	for i := 0; i < n; i++ {
		go func(i int) {
			in := lanesInst.Inports("in")[i]
			out := lanesInst.Outports("out")[i]
			rep := repInst.Outports("rep")[i]
			for {
				v, err := in.Recv()
				if err != nil {
					return
				}
				next := v.(int)*2 + 1
				if err := rep.Send(fmt.Sprintf("stage %d: %d -> %d", i+1, v, next)); err != nil {
					return
				}
				if err := out.Send(next); err != nil {
					return
				}
			}
		}(i)
	}

	// Monitor: the connector enforces stage order per item.
	go func() {
		for {
			v, err := repInst.Inport("mon").Recv()
			if err != nil {
				return
			}
			fmt.Println(v)
		}
	}()

	// Source and sink.
	go func() {
		src := lanesInst.Outport("src")
		for k := 1; k <= items; k++ {
			if err := src.Send(k); err != nil {
				return
			}
		}
	}()
	go func() {
		snk := lanesInst.Inport("snk")
		for k := 0; k < items; k++ {
			v, err := snk.Recv()
			if err != nil {
				return
			}
			fmt.Printf("result %d: %v\n", k+1, v)
		}
		close(done)
	}()

	<-done
	fmt.Printf("lanes: %d steps over %d partition(s); reports: %d steps over %d partition(s)\n",
		lanesInst.Steps(), lanesInst.Partitions(), repInst.Steps(), repInst.Partitions())
	if mode == reo.PartitionRegions {
		if w := lanesInst.Workers(); w > 0 {
			fmt.Printf("  scheduler: %d worker(s) for lanes, %d for reports\n", w, repInst.Workers())
		}
		for ri, info := range lanesInst.Regions() {
			fmt.Printf("  lanes region %d: %d constituents, %d link endpoint(s), %d steps%s\n",
				ri, info.Constituents, info.Links, info.Steps, workerTag(info))
		}
		for ri, info := range repInst.Regions() {
			fmt.Printf("  reports region %d: %d constituents, %d link endpoint(s), %d steps%s\n",
				ri, info.Constituents, info.Links, info.Steps, workerTag(info))
		}
	}
}

// workerTag renders a region's home-worker assignment when it runs on
// the scheduler pool.
func workerTag(info reo.RegionInfo) string {
	if info.Worker < 0 {
		return ""
	}
	return fmt.Sprintf(", worker %d", info.Worker)
}
