package main

import (
	"testing"

	reo "repro"
)

// TestBatchKeepsSteps: the throughput pump moves every item, and batching
// does not change the firing structure — same items, same global steps,
// whatever the batch size.
func TestBatchKeepsSteps(t *testing.T) {
	prog, err := reo.Compile(protocol)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int64
	for _, batch := range []int{1, 4} {
		s, elapsed, err := pump(prog, 2, 512, batch)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 || elapsed <= 0 {
			t.Fatalf("batch=%d: empty measurement (steps %d in %v)", batch, s, elapsed)
		}
		steps = append(steps, s)
	}
	if steps[0] != steps[1] {
		t.Errorf("steps differ across batch sizes: %d vs %d", steps[0], steps[1])
	}
}
