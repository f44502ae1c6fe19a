package gen_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	reo "repro"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/genlib/fabric"
	"repro/internal/genlib/msfabric"
	"repro/internal/genlib/xfab"
)

// The parametric differential suite: each checked-in generated package
// (internal/genlib/{fabric,xfab,msfabric}) runs the same deterministic
// schedule as an interpreted twin built from the identical source with
// region partitioning, and must agree on every per-port value sequence,
// on Steps, and on GuardEvals. The suite deliberately includes an N
// outside the generator's probe lengths — the whole point of generating
// per region shape instead of per length.

// parametricSrc returns the checked-in .reo source next to genlib.
func parametricSrc(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "genlib", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestGoldenParametric pins the generator's output byte-for-byte
// against the checked-in genlib packages.
func TestGoldenParametric(t *testing.T) {
	cases := []struct {
		reoFile, connector, pkg string
		funcs                   reo.Funcs
		templates               int
	}{
		{"fabric.reo", "Fabric", "fabric", reo.Funcs{}, 1},
		{"xfab.reo", "XFab", "xfab", reo.Funcs{Filters: explore.TestFilters(), Transformers: explore.TestXforms()}, 2},
		{"msfabric.reo", "MSFabric", "msfabric", reo.Funcs{}, 1},
	}
	for _, c := range cases {
		t.Run(c.pkg, func(t *testing.T) {
			g, err := gen.GenerateParametric(parametricSrc(t, c.reoFile), gen.Config{
				Connector: c.connector,
				Package:   c.pkg,
				Funcs:     c.funcs,
			})
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("..", "genlib", c.pkg, c.pkg+"_gen.go")
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.File, golden) {
				t.Errorf("generated output differs from %s; run `go generate ./internal/genlib` and commit the result", goldenPath)
			}
			if g.Templates != c.templates {
				t.Errorf("%s generated %d region templates, want %d", c.connector, g.Templates, c.templates)
			}
		})
	}
}

// interpretedFabric builds the interpreted twin of a genlib connector:
// same source, same funcs, same seed, region partitioning (the
// decomposition genrun always uses), so the two backends are
// structurally identical down to the per-region RNG streams.
func interpretedTwin(t *testing.T, reoFile, connector string, lengths map[string]int, funcs reo.Funcs, extra ...reo.ConnectOption) reo.Backend {
	t.Helper()
	prog, err := reo.Compile(parametricSrc(t, reoFile), reo.WithFuncs(funcs))
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]reo.ConnectOption{
		reo.WithSeed(diffSeed),
		reo.WithPartitioning(reo.PartitionRegions),
	}, extra...)
	inst, err := prog.MustConnector(connector).Connect(lengths, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Backend()
}

func compareResults(t *testing.T, want, got *explore.Outcome) {
	t.Helper()
	if d := explore.DiffOutcomes(want, got, "interpreted", "generated", false, false); d != "" {
		t.Errorf("%s\n%s", d, reproCmd(t, diffSeed))
	}
}

// TestParametricDifferentialFabric drives the parametric fabric at two
// array lengths through the shared many2many schedule. N=5 lies outside the
// generator's probe lengths {2,3,4}: the templates must still bind,
// because region shapes are length-invariant.
func TestParametricDifferentialFabric(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gi, err := fabric.New(n, fabric.WithSeed(diffSeed))
			if err != nil {
				t.Fatal(err)
			}
			if got := gi.GeneratedRegions(); got != n {
				t.Errorf("GeneratedRegions() = %d, want %d (every lane bound)", got, n)
			}
			if got := gi.Regions(); got != n {
				t.Errorf("Regions() = %d, want %d", got, n)
			}
			genRes := drive(t, gi, "many2many", n, diffRounds)
			twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": n, "b": n}, reo.Funcs{})
			compareResults(t, drive(t, twin, "many2many", n, diffRounds), genRes)
		})
	}
}

// TestParametricDifferentialFabricWorkers runs the same schedule with
// both backends on a two-worker pool. Scan interleaving under workers is
// scheduler-dependent, so GuardEvals is not comparable; the delivered
// sequences and the step count (two firings per item per lane, however
// scheduled) must still agree exactly.
func TestParametricDifferentialFabricWorkers(t *testing.T) {
	const n = 4
	gi, err := fabric.New(n, fabric.WithSeed(diffSeed), fabric.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := gi.Workers(); got != 2 {
		t.Errorf("Workers() = %d, want 2", got)
	}
	if got := gi.GeneratedRegions(); got != n {
		t.Errorf("GeneratedRegions() = %d, want %d", got, n)
	}
	genRes := drive(t, gi, "many2many", n, diffRounds)
	twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": n, "b": n},
		reo.Funcs{}, reo.WithWorkers(2))
	want := drive(t, twin, "many2many", n, diffRounds)
	if d := explore.DiffOutcomes(want, genRes, "interpreted", "generated", false, true); d != "" {
		t.Errorf("%s\n%s", d, reproCmd(t, diffSeed))
	}
}

// driveXFab is the xfab schedule: receivers first (the filter drops odd
// values, so each receiver's batch ends short and is released by the
// close), then senders.
func driveXFab(t *testing.T, b engine.Backend, rounds int) *explore.Outcome {
	t.Helper()
	s := &explore.Schedule{}
	for _, port := range b.Ports("b") {
		s.Ops = append(s.Ops, explore.Op{Port: port, Cap: rounds})
	}
	s.Ops = append(s.Ops, sends(b, "a", 0, rounds)...)
	return runSchedule(t, b, s, true)
}

// sends returns one batched send per port of param, sender i moving
// explore.Tag(tagBase+i, r) in round r.
func sends(b engine.Backend, param string, tagBase, rounds int) []explore.Op {
	var ops []explore.Op
	for i, port := range b.Ports(param) {
		vs := make([]any, rounds)
		for r := range vs {
			vs[r] = explore.Tag(tagBase+i, r)
		}
		ops = append(ops, explore.Op{Port: port, Send: true, Vals: vs})
	}
	return ops
}

// TestParametricDifferentialXFab exercises generated guards and
// transformations on both sides of real SPSC links: the region analysis
// cuts xfab's middle buffer, so every lane is a generated Transformer
// region linked to a generated Filter region.
func TestParametricDifferentialXFab(t *testing.T) {
	const n = 4
	funcs := reo.Funcs{Filters: explore.TestFilters(), Transformers: explore.TestXforms()}
	gi, err := xfab.New(n, xfab.WithSeed(diffSeed), xfab.WithFuncs(funcs))
	if err != nil {
		t.Fatal(err)
	}
	// Two generated regions per lane (transformer and filter side).
	if got := gi.GeneratedRegions(); got != 2*n {
		t.Errorf("GeneratedRegions() = %d, want %d", got, 2*n)
	}
	genRes := driveXFab(t, gi, diffRounds)
	twin := interpretedTwin(t, "xfab.reo", "XFab", map[string]int{"a": n, "b": n}, funcs)
	want := driveXFab(t, twin, diffRounds)
	compareResults(t, want, genRes)
}

// driveMSFabric scatters one batch per master outlet and gathers one per
// slave outlet — the NPB scatter/gather round structure.
func driveMSFabric(t *testing.T, b engine.Backend, rounds int) *explore.Outcome {
	t.Helper()
	s := &explore.Schedule{}
	for _, param := range []string{"si", "mi"} {
		for _, port := range b.Ports(param) {
			s.Ops = append(s.Ops, explore.Op{Port: port, Cap: rounds})
		}
	}
	s.Ops = append(s.Ops, sends(b, "mo", 0, rounds)...)
	s.Ops = append(s.Ops, sends(b, "so", 100, rounds)...)
	return runSchedule(t, b, s, false)
}

// TestParametricDifferentialMSFabric pins the NPB fabric shape the
// generated backend runs the benchmark programs on.
func TestParametricDifferentialMSFabric(t *testing.T) {
	const n = 4
	gi, err := msfabric.New(n, msfabric.WithSeed(diffSeed))
	if err != nil {
		t.Fatal(err)
	}
	if got := gi.GeneratedRegions(); got != 2*n {
		t.Errorf("GeneratedRegions() = %d, want %d (both lane directions bound)", got, 2*n)
	}
	genRes := driveMSFabric(t, gi, diffRounds)
	lengths := map[string]int{"mo": n, "so": n, "si": n, "mi": n}
	twin := interpretedTwin(t, "msfabric.reo", "MSFabric", lengths, reo.Funcs{})
	want := driveMSFabric(t, twin, diffRounds)
	compareResults(t, want, genRes)
}

// TestParametricBatchEdgeCases mirrors TestBatchedDifferential's edge
// cases on the generated backend: ragged batch tails must produce
// identical sequences and counters, and a receive batch wider than the
// delivered stream must return the partial count on close — identically
// on both backends.
func TestParametricBatchEdgeCases(t *testing.T) {
	both := func(t *testing.T, s func(b engine.Backend) *explore.Schedule, mayShort bool) (want, got *explore.Outcome) {
		gi, err := fabric.New(2, fabric.WithSeed(diffSeed))
		if err != nil {
			t.Fatal(err)
		}
		got = runSchedule(t, gi, s(gi), mayShort)
		twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": 2, "b": 2}, reo.Funcs{})
		want = runSchedule(t, twin, s(twin), mayShort)
		compareResults(t, want, got)
		return want, got
	}
	// Ragged-tail parity: each send batch is parked on the lane's buffer
	// when the receive of the same size registers.
	t.Run("ragged", func(t *testing.T) {
		both(t, func(b engine.Backend) *explore.Schedule {
			s := &explore.Schedule{}
			a, out := b.Ports("a")[0], b.Ports("b")[0]
			for _, k := range []int{1, 3, 8} {
				vs := make([]any, k)
				for j := range vs {
					vs[j] = fmt.Sprintf("b%d-%d", k, j)
				}
				s.Ops = append(s.Ops, explore.Op{Port: a, Send: true, Vals: vs}, explore.Op{Port: out, Cap: k})
			}
			return s
		}, false)
	})
	// Partial count on close: a receive batch of 5 sees only 2 values
	// before the connector closes; both backends must return count 2 with
	// the close's error (compareResults holds them equal).
	t.Run("partial-on-close", func(t *testing.T) {
		want, got := both(t, func(b engine.Backend) *explore.Schedule {
			return &explore.Schedule{Ops: []explore.Op{
				{Port: b.Ports("b")[0], Cap: 5},
				{Port: b.Ports("a")[0], Send: true, Vals: []any{"x0", "x1"}},
			}}
		}, true)
		for _, o := range []*explore.Outcome{want, got} {
			if !o.Deadlock || len(o.Seqs["b[1]"]) != 2 {
				t.Errorf("partial receive: deadlock %v, sequences %v, want 2 values released by the close", o.Deadlock, o.Seqs)
			}
			if r := o.Released["b[1]"]; len(r) != 1 || r[0] != engine.ErrClosed.Error() {
				t.Errorf("partial receive: released with %q, want [%q]", r, engine.ErrClosed)
			}
		}
	})
}
