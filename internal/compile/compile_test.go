package compile_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/connlib"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sema"
)

func build(t *testing.T, src, def string, opts compile.Options) *compile.Template {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := compile.Build(info, def, compile.Funcs{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

const orderedSrc = `
X(tl;prev,next,hd) =
    Replicator(tl;prev,v) mult Fifo1(v;w) mult Replicator(w;next,hd)

Ordered(tl[];hd[]) =
    if (#tl == 1) {
        Fifo1(tl[1];hd[1])
    } else {
        prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
        mult prod (i:1..#tl-1) Seq(next[i],prev[i+1];)
        mult Seq(prev[1],next[#tl];)
    }
`

// TestInstantiationShape reproduces the structure of Fig. 10: for N=1 a
// single Fifo1 medium; for N>1, N X-mediums, N-1 Seq mediums, and one
// closing Seq.
func TestInstantiationShape(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{Simplify: true})
	asm, err := tmpl.Instantiate(map[string]int{"tl": 1, "hd": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Auts) != 1 {
		t.Errorf("N=1: %d constituents, want 1 (the Fifo1 branch)", len(asm.Auts))
	}
	for _, n := range []int{2, 5, 9} {
		asm, err := tmpl.Instantiate(map[string]int{"tl": n, "hd": n})
		if err != nil {
			t.Fatal(err)
		}
		want := n + (n - 1) + 1
		if len(asm.Auts) != want {
			t.Errorf("N=%d: %d constituents, want %d", n, len(asm.Auts), want)
		}
		if got := len(asm.Tails["tl"]); got != n {
			t.Errorf("N=%d: %d tail ports", n, got)
		}
	}
}

// TestMediumComposition: the X section must compose into ONE medium
// automaton per iteration (3 primitives -> 1 product automaton), with
// the section-private vertex hidden.
func TestMediumComposition(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{Simplify: true})
	asm, err := tmpl.Instantiate(map[string]int{"tl": 3, "hd": 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each X medium is the product of Replicator × Fifo1 × Replicator:
	// 2 control states (the fifo) and 4 visible ports (tl, prev, next,
	// hd) after hiding the private interior vertices v and w. The Seq
	// constituents are also 2-state but have only 2 ports.
	xMediums := 0
	for _, a := range asm.Auts {
		if a.NumStates() == 2 && a.Ports.Count() == 4 {
			xMediums++
		}
	}
	if xMediums != 3 {
		t.Errorf("expected 3 composed X mediums (2 states, 4 ports), found %d", xMediums)
	}
}

// TestPrivateHiddenFreshPerInstance: private vertices of a medium become
// fresh instance ports, distinct across loop iterations.
func TestPrivateHiddenFreshPerInstance(t *testing.T) {
	src := `A(a[];b[]) = prod (i:1..#a) { Fifo1(a[i];m) mult Fifo1(m;b[i]) }`
	// m is indexed only implicitly: it is a top-level local used inside a
	// prod — shared across iterations, NOT private. All iterations merge
	// on m (one shared middle vertex).
	tmpl := build(t, src, "A", compile.Options{})
	asm, err := tmpl.Instantiate(map[string]int{"a": 2, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := asm.U.Lookup("m"); !ok {
		t.Error("shared local m should exist as one instance vertex")
	}
}

func TestScalarConnector(t *testing.T) {
	tmpl := build(t, `A(a;b) = Fifo1(a;m) mult Fifo1(m;b)`, "A", compile.Options{Simplify: true})
	if len(tmpl.ArrayParams()) != 0 {
		t.Errorf("array params: %v", tmpl.ArrayParams())
	}
	asm, err := tmpl.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fully static: one composed medium with 4 states (2 fifos), the
	// private m hidden.
	if len(asm.Auts) != 1 {
		t.Fatalf("constituents = %d, want 1", len(asm.Auts))
	}
	if asm.Auts[0].NumStates() != 4 {
		t.Errorf("states = %d, want 4", asm.Auts[0].NumStates())
	}
	if m, ok := asm.U.Lookup("m"); ok {
		// m may exist as a name only if still referenced; it must not
		// appear in any sync set.
		for _, ts := range asm.Auts[0].Trans {
			for _, tr := range ts {
				if tr.Sync.Has(m) {
					t.Error("private vertex in sync set after hiding")
				}
			}
		}
	}
}

// TestNonparametrizedCoincides (§IV-C): for definitions without arrays,
// conditionals, and iterations, parametrized compilation coincides with
// the existing approach — everything composes at compile time into a
// single automaton.
func TestNonparametrizedCoincides(t *testing.T) {
	tmpl := build(t, `
A(a,b;c,d) =
    Replicator(a;x,y) mult Fifo1(x;p) mult Fifo1(y;q)
    mult Sync(p;c) mult Sync(q;d) mult SyncDrain(b,a;)
`, "A", compile.Options{Simplify: true})
	asm, err := tmpl.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(asm.Auts) != 1 {
		t.Errorf("nonparametrized def left %d constituents", len(asm.Auts))
	}
}

// TestInstantiateLengthValidation.
func TestInstantiateLengthValidation(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{})
	if _, err := tmpl.Instantiate(map[string]int{"tl": 2}); err == nil {
		t.Error("missing hd length accepted")
	}
	if _, err := tmpl.Instantiate(map[string]int{"tl": 0, "hd": 0}); err == nil {
		t.Error("empty arrays accepted")
	}
	if _, err := tmpl.Instantiate(map[string]int{"tl": 2, "hd": 2, "xx": 3}); err == nil {
		t.Error("extraneous length accepted")
	}
}

// TestMergerInsertion: a vertex with multiple writers gets a merger node;
// the count of constituents grows by one.
func TestMergerInsertion(t *testing.T) {
	tmpl := build(t, `A(a[];b) = prod (i:1..#a) Sync(a[i];m) mult Sync(m;b)`, "A", compile.Options{})
	for _, n := range []int{2, 4} {
		asm, err := tmpl.Instantiate(map[string]int{"a": n})
		if err != nil {
			t.Fatal(err)
		}
		// n writers (syncs) + 1 reader medium + 1 inserted merger.
		if len(asm.Auts) != n+2 {
			t.Errorf("N=%d: constituents = %d, want %d", n, len(asm.Auts), n+2)
		}
	}
}

// TestDynPrimArity: a variadic primitive over a parametric range is
// checked at instantiation.
func TestDynPrimArity(t *testing.T) {
	tmpl := build(t, `A(a[];b) = Merger(a[1..#a];b)`, "A", compile.Options{})
	for _, n := range []int{1, 7} {
		asm, err := tmpl.Instantiate(map[string]int{"a": n})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got := asm.Auts[0].NumTransitions(); got != n {
			t.Errorf("N=%d: merger transitions = %d", n, got)
		}
	}
}

// TestConditionalBranching: both branches of Fig. 9's if are exercised.
func TestConditionalBranching(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{})
	one, err := tmpl.Instantiate(map[string]int{"tl": 1, "hd": 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := tmpl.Instantiate(map[string]int{"tl": 4, "hd": 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Auts) >= len(many.Auts) {
		t.Errorf("branch selection broken: %d vs %d", len(one.Auts), len(many.Auts))
	}
}

// TestInstantiateDeterministic: instantiating twice yields identical
// shapes (sizes, port counts) — a property over random N.
func TestInstantiateDeterministic(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{Simplify: true})
	prop := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		a1, err1 := tmpl.Instantiate(map[string]int{"tl": n, "hd": n})
		a2, err2 := tmpl.Instantiate(map[string]int{"tl": n, "hd": n})
		if err1 != nil || err2 != nil {
			return false
		}
		if len(a1.Auts) != len(a2.Auts) || a1.U.NumPorts() != a2.U.NumPorts() || a1.U.NumCells() != a2.U.NumCells() {
			return false
		}
		for i := range a1.Auts {
			if a1.Auts[i].NumStates() != a2.Auts[i].NumStates() ||
				a1.Auts[i].NumTransitions() != a2.Auts[i].NumTransitions() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMakePrimArityErrors.
func TestMakePrimArityErrors(t *testing.T) {
	u := ca.NewUniverse()
	p := func() ca.PortID { return u.FreshPort("p") }
	cases := []struct {
		name         string
		tails, heads int
	}{
		{"Sync", 2, 1},
		{"Sync", 1, 0},
		{"SyncDrain", 1, 0},
		{"Replicator", 2, 2},
		{"Merger", 0, 1},
	}
	for _, tc := range cases {
		tails := make([]ca.PortID, tc.tails)
		heads := make([]ca.PortID, tc.heads)
		for i := range tails {
			tails[i] = p()
		}
		for i := range heads {
			heads[i] = p()
		}
		if _, err := compile.MakePrim(u, tc.name, "", tails, heads, compile.Funcs{}); err == nil {
			t.Errorf("%s(%d;%d): no arity error", tc.name, tc.tails, tc.heads)
		}
	}
	if _, err := compile.MakePrim(u, "Nope", "", nil, nil, compile.Funcs{}); err == nil {
		t.Error("unknown primitive accepted")
	}
}

// TestFig10Analogy documents the medium counts for the paper's Fig. 10
// code shape at a concrete N.
func TestFig10Analogy(t *testing.T) {
	tmpl := build(t, orderedSrc, "Ordered", compile.Options{Simplify: true})
	const n = 4
	asm, err := tmpl.Instantiate(map[string]int{"tl": n, "hd": n})
	if err != nil {
		t.Fatal(err)
	}
	// Automaton3 analogue: n X-instances; Automaton4: n-1 Seq2;
	// Automaton2: the closing Seq2. (Automaton1 is the N=1 branch.)
	names := map[string]int{}
	for _, a := range asm.Auts {
		names[fmt.Sprintf("states=%d", a.NumStates())]++
	}
	if names["states=2"] != n+n-1+1 {
		// X mediums have 2 states; Seq primitives also have 2 states
		// (two tails). All n + (n-1) + 1 constituents are 2-state.
		t.Errorf("constituent state profile unexpected: %v", names)
	}
}

// TestMediumSimplifyOff: turning compile-time label simplification off
// must not change observable behavior. Both templates of the ordered
// protocol run the same rounds on an engine and must deliver every
// sender's k-th value in position i of round k, in the same number of
// steps.
func TestMediumSimplifyOff(t *testing.T) {
	const n, rounds = 3, 4
	var steps [2]int64
	for k, simplify := range []bool{true, false} {
		tmpl := build(t, orderedSrc, "Ordered", compile.Options{Simplify: simplify})
		asm, err := tmpl.Instantiate(map[string]int{"tl": n, "hd": n})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(asm.U, asm.Auts, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		errs := make(chan error, n)
		for i, p := range asm.Tails["tl"] {
			go func(i int, p ca.PortID) {
				for r := 0; r < rounds; r++ {
					if err := eng.Send(p, fmt.Sprintf("%d/%d", i, r)); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(i, p)
		}
		for r := 0; r < rounds; r++ {
			for i, p := range asm.Heads["hd"] {
				v, err := eng.Recv(p)
				if err != nil {
					t.Fatalf("simplify=%v: recv %d/%d: %v", simplify, i, r, err)
				}
				if want := fmt.Sprintf("%d/%d", i, r); v != want {
					t.Fatalf("simplify=%v: recv = %v, want %s", simplify, v, want)
				}
			}
		}
		for range asm.Tails["tl"] {
			if err := <-errs; err != nil {
				t.Fatalf("simplify=%v: send: %v", simplify, err)
			}
		}
		steps[k] = eng.Steps()
	}
	if steps[0] != steps[1] {
		t.Errorf("Steps: %d simplified, %d unsimplified; want equal", steps[0], steps[1])
	}
}

// TestInstantiatePortOrder: instantiation is a pure function of the
// template and the lengths. Every run numbers the instance ports alike,
// so every run — and every process of a placed instance — plans the
// same regions. A medium's ports used to be created in map order: 30
// instantiations of TokenRing at N = 8 planned 16 different region sets.
func TestInstantiatePortOrder(t *testing.T) {
	for _, name := range []string{"TokenRing", "Sequencer"} {
		t.Run(name, func(t *testing.T) {
			d, err := connlib.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tmpl := build(t, d.Src, d.DefName(), compile.Options{Simplify: true})
			var names, plan string
			for run := 0; run < 30; run++ {
				asm, err := tmpl.Instantiate(d.Lengths(8))
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				for p := 0; p < asm.U.NumPorts(); p++ {
					fmt.Fprintf(&sb, "%d=%s ", p, asm.U.Name(ca.PortID(p)))
				}
				gotPlan := fmt.Sprintf("%+v", *ca.PlanRegions(asm.U, asm.Auts))
				if run == 0 {
					names, plan = sb.String(), gotPlan
					continue
				}
				if sb.String() != names {
					t.Fatalf("run %d numbered the ports differently:\n%s\nvs\n%s", run, sb.String(), names)
				}
				if gotPlan != plan {
					t.Fatalf("run %d planned different regions:\n%s\nvs\n%s", run, gotPlan, plan)
				}
			}
		})
	}
}
