// BenchmarkBatchedThroughput measures items/s through the stage-coupled
// Fifo1 pipeline at batch sizes 1/8/64/512: the amortization curve of
// one engine-lock registration and one completion handshake per batch
// (plus fused dispatch on pure-flow transitions). batch=1 is the scalar
// Send/Recv path; the acceptance bar of the batched-port refactor is
// batch=64 sustaining at least 2x the scalar rate. The same workload
// backs examples/pipeline; the benchmark harness's pipeline-scalar and
// pipeline-batch workloads measure the chain end to end.
package reo_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

func BenchmarkBatchedThroughput(b *testing.B) {
	const (
		stages = 4
		items  = 1 << 14
	)
	for _, batch := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			// Allocations here are per-run construction (connect, JIT
			// expansion, task goroutines); the steady-state firing path's
			// 0 allocs/op is asserted by TestBatchedSteadyStateAllocs.
			var moved int
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBatchThroughput(stages, items, batch)
				if err != nil {
					b.Fatal(err)
				}
				moved += res.Items
				elapsed += res.Elapsed
			}
			b.ReportMetric(float64(moved)/elapsed.Seconds(), "items/s")
		})
	}
}
