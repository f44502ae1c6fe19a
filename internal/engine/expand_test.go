package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/sema"
)

// The three connlib connectors whose composite space is exponential in N
// (spelled out here: connlib imports the root package, which imports this
// one).
const (
	earlyAsyncMergerSrc = `EarlyAsyncMerger18(in[];out) = prod (i:1..#in) Fifo1(in[i];out)`
	lateAsyncRouterSrc  = `LateAsyncRouter18(in;out[]) =
    Router(in;t[1..#out]) mult prod (i:1..#out) Fifo1(t[i];out[i])`
	discriminatorSrc = `Discriminator18(in[];out) =
    prod (i:1..#in) Fifo1(in[i];f[i])
    mult Seq(f[1..#in];)
    mult Sync(f[#in];out)`
)

func assembleSrc(t *testing.T, src, name, param string, n int) *compile.Assembly {
	t.Helper()
	return assembleLengths(t, src, name, map[string]int{param: n})
}

// assembleLengths instantiates connector name of src at the given array
// lengths.
func assembleLengths(t *testing.T, src, name string, lengths map[string]int) *compile.Assembly {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := compile.Build(info, name, compile.Funcs{}, compile.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := tmpl.Instantiate(lengths)
	if err != nil {
		t.Fatal(err)
	}
	return asm
}

// driveFixed runs a fixed schedule against e: nOps scalar operations, one
// at a time, each on a port drawn by a seeded generator from the boundary
// ports without a pending operation (a fair coin between sending and
// receiving first, so that the many ports of one side do not crowd out
// the single port of the other), the next one issued only after the engine
// has fired everything the last one enabled. Operations the
// connector does not complete at once stay pending until a later one
// releases them. The run is a function of (connector, engine seed,
// schedule seed) alone. Closes e and returns the values received per sink
// port.
func driveFixed(t *testing.T, e *Engine, seed int64, nOps int) [][]any {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var ports []ca.PortID
	for p, d := range e.dirs {
		if d != ca.DirNone {
			ports = append(ports, ca.PortID(p))
		}
	}
	done := make([]chan struct{}, len(e.dirs))
	recvd := make([][]any, len(e.dirs))
	var free [2][]ca.PortID // sources, sinks
	for i := 0; i < nOps; i++ {
		free[0], free[1] = free[0][:0], free[1][:0]
		e.mu.Lock()
		for _, p := range ports {
			if e.pend[p] == nil {
				side := 0
				if e.dirs[p] == ca.DirSink {
					side = 1
				}
				free[side] = append(free[side], p)
			}
		}
		e.mu.Unlock()
		side := free[r.Intn(2)]
		if len(side) == 0 {
			if side = append(free[0], free[1]...); len(side) == 0 {
				t.Fatalf("op %d: every boundary port has a pending operation", i)
			}
		}
		p := side[r.Intn(len(side))]
		if done[p] != nil {
			<-done[p] // completed, as pend shows; let its goroutine finish recording
		}
		c := make(chan struct{})
		done[p] = c
		go func() {
			defer close(c)
			if e.dirs[p] == ca.DirSource {
				e.Send(p, int(p)<<20|i)
			} else if v, err := e.Recv(p); err == nil {
				recvd[p] = append(recvd[p], v)
			}
		}()
		if err := AwaitIdle(e, func() int64 {
			out := int64(0)
			for _, c := range done {
				select {
				case <-c:
				default:
					if c != nil {
						out++
					}
				}
			}
			return out
		}, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	e.Close()
	for _, c := range done {
		if c != nil {
			<-c
		}
	}
	return recvd
}

// TestClusterMemoKeepsExpansionSparse: on the connectors whose composite
// space is exponential, thousands of composite states are expanded from a
// number of compiled plans linear in N, and no expansion holds a slice
// that grows with the number of constituents.
func TestClusterMemoKeepsExpansionSparse(t *testing.T) {
	const n = 64
	for _, tc := range []struct{ name, src, param string }{
		{"Discriminator", discriminatorSrc, "in"},
		{"EarlyAsyncMerger", earlyAsyncMergerSrc, "in"},
		{"LateAsyncRouter", lateAsyncRouterSrc, "out"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asm := assembleSrc(t, tc.src, tc.name+"18", tc.param, n)
			e, err := New(asm.U, asm.Auts, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			driveFixed(t, e, 17, 6000)
			if e.Expansions() < 2000 {
				t.Errorf("expansions = %d; the schedule should reach thousands of composite states", e.Expansions())
			}
			// Two per buffer (fill, drain) is what these connectors need.
			if got := e.PlansCompiled(); got > 3*n {
				t.Errorf("%d plans compiled for %d expansions at N=%d, want at most %d", got, e.Expansions(), n, 3*n)
			}
			k := len(asm.Auts)
			tables := []*expanded{e.once}
			for _, ex := range e.cache.m {
				if ex != nil {
					tables = append(tables, ex)
				}
			}
			for _, ex := range tables {
				if len(ex.deltas) != len(ex.plans) || len(ex.succ) != len(ex.plans) || len(ex.flow) != len(ex.plans) {
					t.Fatalf("expansion of %d plans has %d deltas, %d successors, %d flow marks", len(ex.plans), len(ex.deltas), len(ex.succ), len(ex.flow))
				}
				for i, ds := range ex.deltas {
					if len(ds) > 3 {
						t.Fatalf("plan %d moves %d of %d constituents; clusters here have at most 3 members", i, len(ds), k)
					}
				}
			}
		})
	}
}

// fixedRun is everything observable of one driveFixed run; seqs hashes the
// per-port received sequences.
type fixedRun struct {
	steps, guardEvals, expansions int64
	cached                        int
	seqs                          uint64
}

// pinnedRuns holds what the fixed schedule did at the parent of the change
// that introduced the cluster memo and successor links. A cache bound may
// only change the work a run does, never what fires. The lru, fifo and
// random rows are the cache of 2 states those eviction policies ran; the
// policy is gone, so all three run the one admission cache and pin the
// same steps, guard evaluations and sequences as the unbounded rows. (The
// parent pinned the same for lru and fifo; its random rows differed, at
// {396, 790, …, 0x33a91188ae8a581a} and {400, 681, …, 0x3ba4c7d3fd9d7279},
// only because eviction drew from the choice RNG.) Expansions and kept
// states are not pinned (they read 0 here) but derived from the states the
// run enters, by replayAdmission.
var pinnedRuns = map[string]fixedRun{
	"EarlyAsyncMerger/unbounded": {396, 791, 0, 0, 0x93f24d3706c49415},
	"EarlyAsyncMerger/lru":       {396, 791, 0, 0, 0x93f24d3706c49415},
	"EarlyAsyncMerger/fifo":      {396, 791, 0, 0, 0x93f24d3706c49415},
	"EarlyAsyncMerger/random":    {396, 791, 0, 0, 0x93f24d3706c49415},
	"LateAsyncRouter/unbounded":  {400, 678, 0, 0, 0x79ec9d04de81a776},
	"LateAsyncRouter/lru":        {400, 678, 0, 0, 0x79ec9d04de81a776},
	"LateAsyncRouter/fifo":       {400, 678, 0, 0, 0x79ec9d04de81a776},
	"LateAsyncRouter/random":     {400, 678, 0, 0, 0x79ec9d04de81a776},
}

// recordVisits records, in order, the composite states e enters: the state
// it starts in, and the target of every step. driveFixed moves scalar
// operations on one engine, so no step fuses and the tracer sees them all
// without changing what fires.
func recordVisits(e *Engine) *[]ca.StateKey {
	entries := &[]ca.StateKey{e.packer.Key(e.state)}
	e.SetTracer(func(TraceEvent) { *entries = append(*entries, e.packer.Key(e.state)) }) // runs under e.mu
	return entries
}

// replayAdmission derives a run's expansions and kept states from the
// states it entered, in order, by the cache's admission rule alone: a
// state is expanded on every entry until it is kept; it is kept on an
// entry after its first while fewer than size states are (size 0: no
// bound); once size are kept, states first entered after that are never
// recorded, and nothing is ever evicted.
func replayAdmission(entries []ca.StateKey, size int) (expansions int64, kept int) {
	isKept := make(map[ca.StateKey]bool) // present: seen; true: kept
	for _, k := range entries {
		wasKept, seen := isKept[k]
		full := size > 0 && kept >= size
		switch {
		case wasKept:
			continue
		case seen && !full:
			isKept[k] = true
			kept++
		case !seen && !full:
			isKept[k] = false
		}
		expansions++
	}
	return expansions, kept
}

func TestFixedScheduleRunUnchanged(t *testing.T) {
	for _, tc := range []struct{ name, src, param string }{
		{"EarlyAsyncMerger", earlyAsyncMergerSrc, "in"},
		{"LateAsyncRouter", lateAsyncRouterSrc, "out"},
	} {
		for _, cc := range []struct {
			name string
			size int
		}{{"unbounded", 0}, {"lru", 2}, {"fifo", 2}, {"random", 2}} {
			name := tc.name + "/" + cc.name
			t.Run(name, func(t *testing.T) {
				asm := assembleSrc(t, tc.src, tc.name+"18", tc.param, 4)
				e, err := New(asm.U, asm.Auts, Options{CacheSize: cc.size, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				entries := recordVisits(e)
				recvd := driveFixed(t, e, 23, 400)
				h := fnv.New64a()
				for p, vs := range recvd {
					if vs != nil {
						fmt.Fprintf(h, "%d:%v;", p, vs)
					}
				}
				got := fixedRun{e.Steps(), e.GuardEvals(), e.Expansions(), e.CachedStates(), h.Sum64()}
				want, ok := pinnedRuns[name]
				want.expansions, want.cached = replayAdmission(*entries, cc.size)
				if !ok || got != want {
					t.Errorf("run differs from the pinned one:\n got  %q: {%d, %d, %d, %d, %#x},\n want %+v", name,
						got.steps, got.guardEvals, got.expansions, got.cached, got.seqs, want)
				}
				if cc.size > 0 && got.cached != cc.size {
					t.Errorf("%d states kept, want the bound %d: the schedule should fill the cache", got.cached, cc.size)
				}
			})
		}
	}
}
