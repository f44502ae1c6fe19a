// Package bench is the shared harness for the paper's Fig. 12:
// time-budgeted connector runs counting global execution steps, with the
// table/classification formatting used by cmd/fig12, plus the batched
// Fifo1 pipeline behind BenchmarkBatchedThroughput and examples/pipeline.
package bench
