package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ca"
)

// Exported for the external test package (once_connlib_test.go), which can
// reach the connector library this package cannot import.
var (
	DriveFixed      = driveFixed
	AssembleLengths = assembleLengths
)

// TestOnceTableNeverLinked: after a run that enters thousands of composite
// states only once, nothing links to or from the reused first-visit table,
// and every successor link leads to a kept state — with the default cache
// and with a bounded one, which a bound engine keeps linking since it
// never evicts what it links to.
func TestOnceTableNeverLinked(t *testing.T) {
	for _, size := range []int{0, 64} {
		t.Run(fmt.Sprintf("cap=%d", size), func(t *testing.T) {
			asm := assembleSrc(t, discriminatorSrc, "Discriminator18", "in", 32)
			e, err := New(asm.U, asm.Auts, Options{CacheSize: size, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			driveFixed(t, e, 17, 4000)
			kept := make(map[*expanded]bool)
			for _, ex := range e.cache.m {
				if ex != nil {
					kept[ex] = true
				}
			}
			once := len(e.cache.m) - len(kept)
			if e.once == nil || len(kept) == 0 || once == 0 {
				t.Fatalf("%d states kept, %d seen once: the run must produce both", len(kept), once)
			}
			if e.CachedStates() != len(kept) {
				t.Errorf("CachedStates() = %d, want the %d kept", e.CachedStates(), len(kept))
			}
			if size > 0 && len(kept) != size {
				t.Errorf("%d states kept, want the bound %d", len(kept), size)
			}
			if kept[e.once] {
				t.Fatal("the first-visit table is in the cache")
			}
			links := 0
			for ex := range kept {
				for i, s := range ex.succ {
					switch {
					case s == nil:
					case s == e.once:
						t.Fatalf("a kept state's successor %d is the first-visit table", i)
					case !kept[s]:
						t.Fatalf("a kept state's successor %d is not in the cache", i)
					default:
						links++
					}
				}
			}
			if links == 0 {
				t.Error("no successor links: kept states were never re-entered through one")
			}
			for i, s := range e.once.succ {
				if s != nil {
					t.Fatalf("the first-visit table links successor %d", i)
				}
			}
			t.Logf("%d states seen once, %d kept, %d links", once, len(kept), links)
		})
	}
}

// TestOnceFirstVisitsDoNotAllocate: a 64-sender Discriminator fed in a
// fresh random order every round enters a state it has never seen on
// almost every step. Expanding those into the reused table allocates
// nothing, so the run stays under one allocation per step — keeping every
// state cost about nine per new state.
func TestOnceFirstVisitsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are unreliable under -race")
	}
	const n = 64
	asm := assembleSrc(t, discriminatorSrc, "Discriminator18", "in", n)
	e, err := New(asm.U, asm.Auts, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ins []ca.PortID
	var out ca.PortID
	for p, d := range e.dirs {
		switch d {
		case ca.DirSource:
			ins = append(ins, ca.PortID(p))
		case ca.DirSink:
			out = ca.PortID(p)
		}
	}
	if len(ins) != n {
		t.Fatalf("%d sources, want %d", len(ins), n)
	}
	// Every operation completes on arrival: each buffer is empty when its
	// send comes, and the sequencer waits at the last buffer, full by then,
	// when the receive comes.
	r := rand.New(rand.NewSource(3))
	round := func() {
		r.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
		for _, p := range ins {
			if err := e.Send(p, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Recv(out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		round() // warm the cluster memo, the plans and the reused table
	}
	steps0, exps0 := e.Steps(), e.Expansions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	steps, exps := e.Steps()-steps0, e.Expansions()-exps0
	allocs := after.Mallocs - before.Mallocs
	if steps != 200*2*n {
		t.Fatalf("%d steps, want %d", steps, 200*2*n)
	}
	if exps < steps/2 {
		t.Fatalf("%d expansions in %d steps: the run should enter new states on most steps", exps, steps)
	}
	if perStep := float64(allocs) / float64(steps); perStep >= 1 {
		t.Errorf("%d allocations in %d steps (%.2f per step, %d expansions), want < 1 per step", allocs, steps, perStep, exps)
	}
	t.Logf("%d allocations, %d steps, %d expansions, %d kept states", allocs, steps, exps, e.CachedStates())
}
