package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

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
		before := e.OpsRegistered()
		go func() {
			defer close(c)
			if e.dirs[p] == ca.DirSource {
				e.Send(p, int(p)<<20|i)
			} else if v, err := e.Recv(p); err == nil {
				recvd[p] = append(recvd[p], v)
			}
		}()
		for e.OpsRegistered() == before {
			runtime.Gosched()
		}
		// The operation registers and fires under one hold of the lock.
		e.mu.Lock()
		e.mu.Unlock()
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
			for _, ex := range e.cache.all {
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
	steps, guardEvals, expansions, evictions int64
	cached                                   int
	seqs                                     uint64
}

// pinnedRuns holds what the fixed schedule did at the parent of the change
// that introduced the cluster memo and successor links. With a cache of
// two composite states neither may be observable at all — same evictions,
// same expansions; with the unbounded cache they may only save work, never
// change what fires. An unbounded cache's expansions and kept states are
// not pinned (they read 0 here) but derived from the states the run
// enters: it keeps exactly the states entered at least twice, and expands
// each distinct state once plus each kept state once more.
var pinnedRuns = map[string]fixedRun{
	"EarlyAsyncMerger/unbounded": {396, 791, 0, 0, 0, 0x93f24d3706c49415},
	"EarlyAsyncMerger/lru":       {396, 791, 192, 190, 2, 0x93f24d3706c49415},
	"EarlyAsyncMerger/fifo":      {396, 791, 251, 249, 2, 0x93f24d3706c49415},
	"EarlyAsyncMerger/random":    {396, 790, 259, 257, 2, 0x33a91188ae8a581a},
	"LateAsyncRouter/unbounded":  {400, 678, 0, 0, 0, 0x79ec9d04de81a776},
	"LateAsyncRouter/lru":        {400, 678, 208, 206, 2, 0x79ec9d04de81a776},
	"LateAsyncRouter/fifo":       {400, 678, 259, 257, 2, 0x79ec9d04de81a776},
	"LateAsyncRouter/random":     {400, 681, 290, 288, 2, 0x3ba4c7d3fd9d7279},
}

// recordVisits counts, per composite state, how often e enters it: the
// state it starts in, and the target of every step. driveFixed moves
// scalar operations on one engine, so no step fuses and the tracer sees
// them all without changing what fires.
func recordVisits(e *Engine) map[ca.StateKey]int {
	visits := map[ca.StateKey]int{e.packer.Key(e.state): 1}
	e.SetTracer(func(TraceEvent) { visits[e.packer.Key(e.state)]++ }) // runs under e.mu
	return visits
}

func TestFixedScheduleRunUnchanged(t *testing.T) {
	type cacheCfg struct {
		name string
		size int
		pol  EvictionPolicy
	}
	for _, tc := range []struct{ name, src, param string }{
		{"EarlyAsyncMerger", earlyAsyncMergerSrc, "in"},
		{"LateAsyncRouter", lateAsyncRouterSrc, "out"},
	} {
		for _, cc := range []cacheCfg{{"unbounded", 0, LRU}, {"lru", 2, LRU}, {"fifo", 2, FIFO}, {"random", 2, RandomEvict}} {
			name := tc.name + "/" + cc.name
			t.Run(name, func(t *testing.T) {
				asm := assembleSrc(t, tc.src, tc.name+"18", tc.param, 4)
				e, err := New(asm.U, asm.Auts, Options{CacheSize: cc.size, Policy: cc.pol, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				visits := recordVisits(e)
				recvd := driveFixed(t, e, 23, 400)
				h := fnv.New64a()
				for p, vs := range recvd {
					if vs != nil {
						fmt.Fprintf(h, "%d:%v;", p, vs)
					}
				}
				got := fixedRun{e.Steps(), e.GuardEvals(), e.Expansions(), e.Evictions(), e.CachedStates(), h.Sum64()}
				want, ok := pinnedRuns[name]
				if cc.size == 0 {
					kept := 0
					for _, n := range visits {
						if n >= 2 {
							kept++
						}
					}
					want.expansions, want.cached = int64(len(visits)+kept), kept
				}
				if !ok || got != want {
					t.Errorf("run differs from the pinned one:\n got  %q: {%d, %d, %d, %d, %d, %#x},\n want %+v", name,
						got.steps, got.guardEvals, got.expansions, got.evictions, got.cached, got.seqs, want)
				}
			})
		}
	}
}
