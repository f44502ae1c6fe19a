package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/connlib"
	"repro/internal/engine"
)

// TestOnceMatchesBoundedCache: keeping a composite state only on its
// second visit changes nothing a run observes. Every connlib connector at
// N = 8, under the fixed schedule, fires the same per-port sequences in
// the same Steps with the same GuardEvals on the default unbounded cache
// as on a bounded one too large to evict, which expands and keeps every
// state on its first visit.
func TestOnceMatchesBoundedCache(t *testing.T) {
	const n = 8
	for _, d := range connlib.All() {
		t.Run(d.Name, func(t *testing.T) {
			run := func(opts engine.Options) ([][]any, int64, int64) {
				asm := engine.AssembleLengths(t, d.Src, d.DefName(), d.Lengths(n))
				e, err := engine.New(asm.U, asm.Auts, opts)
				if err != nil {
					t.Fatal(err)
				}
				return engine.DriveFixed(t, e, 31, 600), e.Steps(), e.GuardEvals()
			}
			seqs, steps, guards := run(engine.Options{Seed: 9})
			bSeqs, bSteps, bGuards := run(engine.Options{Seed: 9, CacheSize: 1 << 20, Policy: engine.LRU})
			if steps == 0 {
				t.Fatal("the schedule fired nothing")
			}
			if !reflect.DeepEqual(seqs, bSeqs) {
				t.Errorf("per-port sequences differ\nunbounded: %v\nbounded:   %v", seqs, bSeqs)
			}
			if steps != bSteps || guards != bGuards {
				t.Errorf("unbounded: %d steps, %d guard evals; bounded: %d, %d", steps, guards, bSteps, bGuards)
			}
		})
	}
}
