package bench

import (
	"fmt"
	"sync"
	"time"

	reo "repro"
)

// This file measures batched-port throughput: the §V-C overhead story
// from the other side. Scalar port operations pay one engine-lock
// registration and one completion handshake per item; SendBatch/RecvBatch
// pay them once per batch, and pure-flow transitions additionally fuse a
// whole batch into one dispatch decision. The workload is the
// stage-coupled Fifo1 pipeline (the fig13-style streaming shape hand-
// written channels win on), moved once per measurement at a given batch
// size; items/s is the metric.

// batchPipelineSrc is the stage-coupled pipeline protocol: one buffered
// lane per hop, tasks attached between hops (the examples/pipeline and
// partition-test "Lanes" shape).
const batchPipelineSrc = `
BatchPipeline(src,out[];in[],snk) =
    Fifo1(src;in[1])
    mult prod (i:1..#out-1) Fifo1(out[i];in[i+1])
    mult Fifo1(out[#out];snk)
`

var batchPipelineProg = reo.MustCompile(batchPipelineSrc)

// BatchResult is one batched-throughput measurement.
type BatchResult struct {
	Stages  int
	Batch   int
	Items   int
	Elapsed time.Duration
	Steps   int64
}

// ItemsPerSec returns the measurement's throughput.
func (r BatchResult) ItemsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Items) / r.Elapsed.Seconds()
}

// RunBatchThroughput pushes items through a stages-stage Fifo1 pipeline
// with every task (source, relay stages, sink) moving values through its
// port in batches of the given size — batch 1 is the scalar Send/Recv
// case on the same engine path — and reports the wall time of the whole
// stream. Every task reuses one value slice for its entire run, so the
// measured path performs no allocation. Extra connect options (e.g.
// partitioning) apply to the instance.
func RunBatchThroughput(stages, items, batch int, opts ...reo.ConnectOption) (BatchResult, error) {
	res := BatchResult{Stages: stages, Batch: batch, Items: items}
	if batch < 1 || stages < 1 || items < 1 {
		return res, fmt.Errorf("bench: bad batch config (stages=%d items=%d batch=%d)", stages, items, batch)
	}
	conn, err := batchPipelineProg.Connector("BatchPipeline")
	if err != nil {
		return res, err
	}
	inst, err := conn.Connect(map[string]int{"out": stages, "in": stages}, opts...)
	if err != nil {
		return res, err
	}
	defer inst.Close()

	var wg sync.WaitGroup
	for i := 0; i < stages; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := inst.Inports("in")[i]
			out := inst.Outports("out")[i]
			buf := make([]any, batch)
			for done := 0; done < items; {
				k := batch
				if items-done < k {
					k = items - done
				}
				got, err := in.RecvBatch(buf[:k])
				if err != nil {
					return
				}
				if out.SendBatch(buf[:got]) != nil {
					return
				}
				done += got
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := inst.Outport("src")
		vs := make([]any, batch)
		for sent := 0; sent < items; {
			k := batch
			if items-sent < k {
				k = items - sent
			}
			for j := 0; j < k; j++ {
				vs[j] = sent + j
			}
			if src.SendBatch(vs[:k]) != nil {
				return
			}
			sent += k
		}
	}()

	start := time.Now()
	snk := inst.Inport("snk")
	buf := make([]any, batch)
	for got := 0; got < items; {
		k := batch
		if items-got < k {
			k = items - got
		}
		m, err := snk.RecvBatch(buf[:k])
		if err != nil {
			return res, err
		}
		got += m
	}
	res.Elapsed = time.Since(start)
	res.Steps = inst.Steps()
	inst.Close()
	wg.Wait()
	return res, nil
}
