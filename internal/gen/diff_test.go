package gen_test

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/connlib"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/sema"
)

// The differential acceptance test of the generated backend: for every
// connlib connector (plus the guard/transformer connectors), a
// region-partitioned instance whose eligible regions are bound to
// in-process templates (gen.InProcBinder → engine.BindGen) and a plain
// interpreted one run the same deterministic schedule (explore.KindSchedule)
// with the same seed, and must agree on every per-port value sequence, on
// Steps, and on GuardEvals. Both sides live in this test binary: no Go
// toolchain is involved. The explorer's driver launches each operation
// at an idle barrier, so the comparison is strict at any processor count.

const (
	diffN      = 3
	diffRounds = 6
	diffSeed   = 7
)

// reproCmd pins a differential failure to its replay: these harnesses
// are deterministic functions of the fixed seed, so the exact test
// invocation plus the seed is the whole reproduction recipe.
func reproCmd(t *testing.T, seed int64) string {
	return fmt.Sprintf("repro: go test -run '%s' ./internal/gen/ (deterministic, seed %d)",
		regexp.QuoteMeta(t.Name()), seed)
}

// funcConns exercise guards and named transformations, all driven as
// one2many connectors at n=1 (lossy ones leave the receiver short,
// released by close). They pin the simplification interactions
// individually: FilterChain a guard plus a transform, XformChain two
// chained transforms composed into one action by simplification (inc
// and double do not commute, so composition order is observable),
// XformFifo a transform folded into a buffer's cell fill, and
// GuardFold a transform folded into a filter's predicate.
var funcConns = []struct {
	name, src string
}{
	{"FilterChain", `FilterChain(in;out) = Filter.even(in;m) mult Transformer.double(m;out)`},
	{"XformChain", `XformChain(in;out) = Transformer.inc(in;m) mult Transformer.double(m;out)`},
	{"XformFifo", `XformFifo(in;out) = Transformer.double(in;m) mult Fifo1(m;out)`},
	{"GuardFold", `GuardFold(in;out) = Transformer.inc(in;m) mult Filter.even(m;out)`},
}

// kindName maps connlib boundary shapes to explore.KindSchedule kinds.
func kindName(k connlib.Kind) string {
	switch k {
	case connlib.ManyToOne:
		return "many2one"
	case connlib.OneToMany:
		return "one2many"
	case connlib.ManyToMany:
		return "many2many"
	case connlib.ClientsOnly:
		return "clients"
	case connlib.ReceiversOnly:
		return "receivers"
	case connlib.AcquireRelease:
		return "acqrel"
	case connlib.GatedManyToMany:
		return "gated"
	}
	return "unknown"
}

// buildTemplate runs the front end on one connector definition.
func buildTemplate(t *testing.T, src, def string, funcs compile.Funcs) *compile.Template {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := compile.Build(info, def, funcs, compile.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// regionBackend instantiates tmpl afresh and partitions it into regions,
// binding every eligible one to an in-process template when bound is
// set. It returns the name-addressed instance, how many regions could
// bind at all (single automaton, no synthesized node), and how many did.
func regionBackend(t *testing.T, tmpl *compile.Template, lengths map[string]int, bound bool) (b *engine.Named, eligible, generated int) {
	t.Helper()
	asm, err := tmpl.Instantiate(lengths)
	if err != nil {
		t.Fatal(err)
	}
	var bind func(int, ca.RegionSpec, *engine.Engine)
	count := new(int)
	if bound {
		bind, count = gen.InProcBinder(asm, gen.InProcOptions{})
	}
	m, err := engine.NewMultiRegionsBound(asm.U, asm.Auts, engine.Options{Seed: diffSeed}, bind)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range ca.PlanRegions(asm.U, asm.Auts).Regions {
		if len(spec.Auts) == 1 && len(spec.Nodes) == 0 {
			eligible++
		}
	}
	return engine.NewNamed(m, engine.NamedPorts(asm.U, asm.Tails), engine.NamedPorts(asm.U, asm.Heads)), eligible, *count
}

// drive runs the kind's schedule on b and fails the test on an operation
// error, or on a receive left short where the kind allows none.
func drive(t *testing.T, b engine.Backend, kind string, n, rounds int) *explore.Outcome {
	t.Helper()
	s, err := explore.KindSchedule(b, kind, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return runSchedule(t, b, s, kind == "many2one" || kind == "one2many")
}

// runSchedule runs s on b; see drive.
func runSchedule(t *testing.T, b engine.Backend, s *explore.Schedule, mayShort bool) *explore.Outcome {
	t.Helper()
	out, err := explore.RunSchedule(b, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Broken != "" || (out.Deadlock && !mayShort) {
		t.Fatalf("run did not finish: broken %q, deadlock %v, sequences %v", out.Broken, out.Deadlock, out.Seqs)
	}
	return out
}

func TestInProcDifferentialConnlib(t *testing.T) {
	type diffConn struct {
		name, kind string
		n          int
		src, def   string
		funcs      compile.Funcs
		lengths    map[string]int
	}
	var conns []diffConn
	for _, d := range connlib.All() {
		conns = append(conns, diffConn{
			name: d.Name, kind: kindName(d.Kind), n: diffN,
			src: d.Src, def: d.DefName(), lengths: d.Lengths(diffN),
		})
	}
	funcs := explore.Funcs()
	for _, fc := range funcConns {
		conns = append(conns, diffConn{
			name: fc.name, kind: "one2many", n: 1,
			src: fc.src, def: fc.name, funcs: funcs,
		})
	}
	if len(conns) != 18+len(funcConns) {
		t.Fatalf("differential covers %d connectors, want the 18 of connlib plus %d", len(conns), len(funcConns))
	}

	boundConns := 0
	for _, c := range conns {
		t.Run(c.name, func(t *testing.T) {
			tmpl := buildTemplate(t, c.src, c.def, c.funcs)
			ref, _, _ := regionBackend(t, tmpl, c.lengths, false)
			want := drive(t, ref, c.kind, c.n, diffRounds)
			gb, eligible, generated := regionBackend(t, tmpl, c.lengths, true)
			if eligible > 0 && generated == 0 {
				t.Errorf("none of %d single-automaton regions bound: the lane compares the interpreter to itself", eligible)
			}
			if generated > 0 {
				boundConns++
			}
			compareResults(t, want, drive(t, gb, c.kind, c.n, diffRounds))
		})
	}
	if boundConns == 0 {
		t.Error("no connector bound any region")
	}
	t.Logf("%d of %d connectors ran with at least one bound region", boundConns, len(conns))
}
