package engine_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/connlib"
	"repro/internal/engine"
)

// connlibPins is what every connlib connector at N = 8 did under the fixed
// schedule (engine seed 9, DriveFixed(…, 31, 600)) at the parent of the
// change that made a bounded cache admit on the second visit and never
// evict: the hash of its per-port received sequences, its Steps and its
// GuardEvals. That engine kept every state on its first visit with a
// bounded cache and on its second with the default one, so the pins come
// from a loop other than the one under test.
var connlibPins = map[string]struct {
	seqs              uint64
	steps, guardEvals int64
}{
	"Merger":               {0x955aaf65a1fefea9, 300, 1212},
	"Replicator":           {0x9ad6609b6764fd2d, 66, 66},
	"Router":               {0xbde13679e6d6f1f5, 296, 1219},
	"EarlyAsyncMerger":     {0x234e4b2ac5626aa5, 600, 1822},
	"LateAsyncMerger":      {0xd971d5b8ac98a829, 600, 1401},
	"EarlyAsyncReplicator": {0x615acbf594d7916d, 133, 133},
	"LateAsyncReplicator":  {0xb533fb6dd84a8efb, 593, 1278},
	"EarlyAsyncRouter":     {0xca9c91003ee0ea94, 592, 1436},
	"LateAsyncRouter":      {0x41dac54a58eaaf37, 594, 1797},
	"Barrier":              {0x369739ad4fc87ffe, 37, 37},
	"Alternator":           {0xa87520aeaadca048, 333, 333},
	"Sequencer":            {0xcbf29ce484222325, 597, 597},
	"Lock":                 {0xcbf29ce484222325, 598, 893},
	"OrderedMany2One":      {0x25c37f1ea198ab23, 590, 590},
	"Exchanger":            {0xa2a7f5819ead7732, 37, 37},
	"Valve":                {0x5506d05b3108c73a, 327, 552},
	"Discriminator":        {0x74a9498b3cd0bc6d, 1055, 1517},
	"TokenRing":            {0xbd95541ec29e071d, 597, 597},
}

// TestOnceMatchesBoundedCache: a cache bound changes nothing a run
// observes. Every connlib connector at N = 8, under the fixed schedule,
// fires the pinned per-port sequences in the pinned Steps with the pinned
// GuardEvals on the default unbounded cache and under bounds of 1 and 8
// states, and a bounded cache never holds more than its bound.
func TestOnceMatchesBoundedCache(t *testing.T) {
	const n = 8
	if len(connlib.All()) != len(connlibPins) {
		t.Fatalf("%d connlib connectors, %d pinned", len(connlib.All()), len(connlibPins))
	}
	for _, d := range connlib.All() {
		t.Run(d.Name, func(t *testing.T) {
			want, ok := connlibPins[d.Name]
			if !ok {
				t.Fatalf("no pin for %s", d.Name)
			}
			for _, size := range []int{0, 1, 8} {
				asm := engine.AssembleLengths(t, d.Src, d.DefName(), d.Lengths(n))
				e, err := engine.New(asm.U, asm.Auts, engine.Options{Seed: 9, CacheSize: size})
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for p, vs := range engine.DriveFixed(t, e, 31, 600) {
					if vs != nil {
						fmt.Fprintf(h, "%d:%v;", p, vs)
					}
				}
				if seqs := h.Sum64(); seqs != want.seqs || e.Steps() != want.steps || e.GuardEvals() != want.guardEvals {
					t.Errorf("cap %d: {%#x, %d, %d}, pinned {%#x, %d, %d}", size,
						seqs, e.Steps(), e.GuardEvals(), want.seqs, want.steps, want.guardEvals)
				}
				if size > 0 && e.CachedStates() > size {
					t.Errorf("cap %d: %d states kept", size, e.CachedStates())
				}
			}
		})
	}
}
