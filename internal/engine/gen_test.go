package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

// The tests in this file run region engines bound to hand-written
// templates (engine.BindGen) next to unbound ones. The connector is two
// independent single-automaton regions — a Fifo1 lane (two states, one
// cell) and a two-way Merger (one state, two pure-flow transitions, a
// seeded choice whenever both senders are pending) — so every feature of
// the fire loop a bound table goes through is on one of them, and no
// cross-region traffic makes a run timing-dependent.

type laneMerger struct {
	m         *engine.Multi
	a, b      ca.PortID // Fifo1(a;b)
	c0, c1, d ca.PortID // Merger(c0,c1;d)
	engs      []*engine.Engine
	bindErrs  []error // one per BindGen call, nil for a bind that took
}

// fifoTemplate is Fifo1(slot 0; slot 1) over cell 0, as `reoc gen` emits it.
func fifoTemplate() *engine.GenTemplate {
	return &engine.GenTemplate{States: 2, Initial: 0, Cells: 1, Cls: "SK", Trans: [][]engine.GenTrans{
		{{Sync: []int32{0}, Target: 1, Exec: func(g *engine.GenCtx) { g.SetCell(0, g.Val(0)) }}},
		{{Sync: []int32{1}, Target: 0, Exec: func(g *engine.GenCtx) { g.Deliver(1, g.Cell(0)) }}},
	}}
}

// mergerTemplate is Merger(slot 0, slot 1; slot 2).
func mergerTemplate() *engine.GenTemplate {
	return &engine.GenTemplate{States: 1, Initial: 0, Cells: 0, Cls: "SSK", Trans: [][]engine.GenTrans{{
		{Sync: []int32{0, 2}, Target: 0, Flow: true, Exec: func(g *engine.GenCtx) { g.Deliver(2, g.Val(0)) }},
		{Sync: []int32{1, 2}, Target: 0, Flow: true, Exec: func(g *engine.GenCtx) { g.Deliver(2, g.Val(1)) }},
	}}}
}

// newLaneMerger builds the connector. templates, when non-nil, supplies
// the template to bind on the region of automaton 0 (the lane) and 1
// (the merger); a nil entry leaves that region interpreted.
func newLaneMerger(t testing.TB, opts engine.Options, templates []*engine.GenTemplate) *laneMerger {
	t.Helper()
	u := ca.NewUniverse()
	lm := &laneMerger{a: u.Port("a"), b: u.Port("b"), c0: u.Port("c0"), c1: u.Port("c1"), d: u.Port("d")}
	for _, p := range []ca.PortID{lm.a, lm.c0, lm.c1} {
		u.SetDir(p, ca.DirSource)
	}
	u.SetDir(lm.b, ca.DirSink)
	u.SetDir(lm.d, ca.DirSink)
	auts := []*ca.Automaton{prim.Fifo1(u, lm.a, lm.b), prim.Merger(u, []ca.PortID{lm.c0, lm.c1}, lm.d)}
	bind := func(ri int, spec ca.RegionSpec, eng *engine.Engine) {
		lm.engs = append(lm.engs, eng)
		if len(spec.Auts) != 1 || templates == nil || templates[spec.Auts[0]] == nil {
			return
		}
		_, ports, cells := ca.CanonicalRegion(auts[spec.Auts[0]])
		lm.bindErrs = append(lm.bindErrs, eng.BindGen(templates[spec.Auts[0]], ports, cells, nil, nil))
	}
	m, err := engine.NewMultiRegionsBound(u, auts, opts, bind)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2", m.Partitions())
	}
	lm.m = m
	return lm
}

func bothTemplates() []*engine.GenTemplate {
	return []*engine.GenTemplate{fifoTemplate(), mergerTemplate()}
}

// requireBothBound fails unless both regions took their template.
func (lm *laneMerger) requireBothBound(t testing.TB) {
	t.Helper()
	if len(lm.bindErrs) != 2 || lm.bindErrs[0] != nil || lm.bindErrs[1] != nil {
		t.Fatalf("both regions must bind, BindGen returned %v", lm.bindErrs)
	}
}

type laneMergerRun struct {
	Lane, Merged      []any
	Steps, GuardEvals int64
}

// drive moves k values down the lane one at a time, then merges two
// batches of k: both senders are registered (and parked) before the one
// receive arrives, so every choice is made inside that receive's fire
// loop and the run is a function of the seed alone.
func (lm *laneMerger) drive(t testing.TB, k int) laneMergerRun {
	t.Helper()
	var r laneMergerRun
	for i := 0; i < k; i++ {
		if err := lm.m.Send(lm.a, i); err != nil {
			t.Fatal(err)
		}
		v, err := lm.m.Recv(lm.b)
		if err != nil {
			t.Fatal(err)
		}
		r.Lane = append(r.Lane, v)
	}
	errc := make(chan error, 2)
	for i, p := range []ca.PortID{lm.c0, lm.c1} {
		vs := make([]any, k)
		for j := range vs {
			vs[j] = fmt.Sprintf("c%d-%d", i, j)
		}
		go func() {
			_, err := lm.m.SendBatch(p, vs)
			errc <- err
		}()
		engine.WaitParked(t, lm.m, int64(i+1))
	}
	r.Merged = make([]any, 2*k)
	if n, err := lm.m.RecvBatch(lm.d, r.Merged); err != nil || n != 2*k {
		t.Fatalf("merged receive: %d items, %v", n, err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	r.Steps, r.GuardEvals = lm.m.Steps(), lm.m.GuardEvals()
	return r
}

// TestBoundMatchesInterpreted is the baseline the other tests lean on:
// both regions bind, and the bound instance reproduces the interpreted
// one exactly — sequences (the seeded merge order included), Steps and
// GuardEvals — without expanding a state or compiling a plan.
func TestBoundMatchesInterpreted(t *testing.T) {
	opts := engine.Options{Seed: 11}
	ref := newLaneMerger(t, opts, nil)
	want := ref.drive(t, 12)
	ref.m.Close()
	if ref.m.Expansions() == 0 {
		t.Fatal("interpreted reference expanded nothing")
	}
	c0, c1 := 0, 0
	for _, v := range want.Merged {
		if strings.HasPrefix(v.(string), "c0") {
			c0++
		} else {
			c1++
		}
	}
	if c0 != 12 || c1 != 12 {
		t.Fatalf("merge delivered %d + %d values, want 12 + 12", c0, c1)
	}

	lm := newLaneMerger(t, opts, bothTemplates())
	defer lm.m.Close()
	lm.requireBothBound(t)
	for i, e := range lm.engs {
		if !e.Generated() {
			t.Errorf("region %d: Generated() = false after a successful bind", i)
		}
	}
	if got := lm.drive(t, 12); !reflect.DeepEqual(want, got) {
		t.Errorf("bound run differs\ninterpreted: %+v\nbound:       %+v", want, got)
	}
	if n := lm.m.Expansions(); n != 0 {
		t.Errorf("bound instance expanded %d states", n)
	}
	if n := lm.m.PlansCompiled(); n != 0 {
		t.Errorf("bound instance compiled %d plans", n)
	}
}

// TestBoundRejectsMalformedTemplate: a template that would index outside
// the bound ports or the state table is refused at bind time, whatever
// else about it matches; the engine stays interpreted and behaves like
// one that was never offered a template.
func TestBoundRejectsMalformedTemplate(t *testing.T) {
	const lane, merger = 0, 1
	cases := []struct {
		name   string
		region int
		break_ func(*engine.GenTemplate)
		errHas string
	}{
		{"slot past the ports", lane, func(g *engine.GenTemplate) { g.Trans[0][0].Sync = []int32{2} }, "slot 2"},
		{"negative slot", lane, func(g *engine.GenTemplate) { g.Trans[1][0].Sync = []int32{-1} }, "slot -1"},
		{"slots descending", merger, func(g *engine.GenTemplate) { g.Trans[0][1].Sync = []int32{2, 1} }, "ascending"},
		{"slot repeated", merger, func(g *engine.GenTemplate) { g.Trans[0][0].Sync = []int32{0, 0} }, "ascending"},
		{"target past the states", lane, func(g *engine.GenTemplate) { g.Trans[0][0].Target = 2 }, "targets state 2"},
		{"negative target", merger, func(g *engine.GenTemplate) { g.Trans[0][1].Target = -1 }, "targets state -1"},
	}
	opts := engine.Options{Seed: 3}
	ref := newLaneMerger(t, opts, nil)
	want := ref.drive(t, 8)
	ref.m.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			templates := make([]*engine.GenTemplate, 2)
			templates[c.region] = bothTemplates()[c.region]
			c.break_(templates[c.region])
			lm := newLaneMerger(t, opts, templates)
			defer lm.m.Close()
			if len(lm.bindErrs) != 1 || lm.bindErrs[0] == nil {
				t.Fatalf("BindGen accepted the template (errors: %v)", lm.bindErrs)
			}
			if !strings.Contains(lm.bindErrs[0].Error(), c.errHas) {
				t.Errorf("error %q does not name the broken rule (%q)", lm.bindErrs[0], c.errHas)
			}
			for i, e := range lm.engs {
				if e.Generated() {
					t.Errorf("region %d: Generated() = true after a refused bind", i)
				}
			}
			if got := lm.drive(t, 8); !reflect.DeepEqual(want, got) {
				t.Errorf("run after a refused bind differs from an unbound engine\nunbound: %+v\nrefused: %+v", want, got)
			}
		})
	}
}

// TestBoundTraceMatchesInterpreted: with a tracer installed the fused
// burst is off on a bound engine as on an interpreted one, so every step
// of a batch is reported on its own, and the two engines report the same
// events for the same schedule.
func TestBoundTraceMatchesInterpreted(t *testing.T) {
	const k = 6
	trace := func(templates []*engine.GenTemplate) ([]engine.TraceEvent, laneMergerRun) {
		lm := newLaneMerger(t, engine.Options{Seed: 5}, templates)
		defer lm.m.Close()
		// One recorder per region: step numbers are per engine.
		recs := make([]engine.Recorder, len(lm.engs))
		for i, e := range lm.engs {
			e.SetTracer(recs[i].Trace)
		}
		run := lm.drive(t, k)
		var evs []engine.TraceEvent
		for i := range recs {
			evs = append(evs, recs[i].Events()...)
		}
		return evs, run
	}
	want, wantRun := trace(nil)
	got, gotRun := trace(bothTemplates())
	// 2k lane steps, and 2k merger steps of which none may have been fused
	// away into an unreported burst.
	if len(got) != 4*k {
		t.Errorf("bound engines reported %d events, want %d (every step individually)", len(got), 4*k)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("trace differs\ninterpreted: %v\nbound:       %v", want, got)
	}
	if !reflect.DeepEqual(wantRun, gotRun) {
		t.Errorf("traced run differs\ninterpreted: %+v\nbound:       %+v", wantRun, gotRun)
	}
}

// TestBoundBoundedCacheNeverExpands: on a bound engine every state lookup
// is answered by the table, whatever the state cache bound, so nothing is
// expanded, compiled or kept, and the run is the unbounded one.
func TestBoundBoundedCacheNeverExpands(t *testing.T) {
	unbounded := newLaneMerger(t, engine.Options{Seed: 9}, bothTemplates())
	want := unbounded.drive(t, 10)
	unbounded.m.Close()

	lm := newLaneMerger(t, engine.Options{Seed: 9, CacheSize: 1}, bothTemplates())
	defer lm.m.Close()
	lm.requireBothBound(t)
	if got := lm.drive(t, 10); !reflect.DeepEqual(want, got) {
		t.Errorf("bounded-cache run differs\nunbounded: %+v\nbounded:   %+v", want, got)
	}
	if n := lm.m.Expansions(); n != 0 {
		t.Errorf("Expansions() = %d, want 0", n)
	}
	if n := lm.m.PlansCompiled(); n != 0 {
		t.Errorf("PlansCompiled() = %d, want 0", n)
	}
	for i, e := range lm.engs {
		if e.CachedStates() != 0 {
			t.Errorf("region %d: cache holds %d states, want untouched", i, e.CachedStates())
		}
	}
}

// TestBoundResetReplays: Close + Reset returns a bound instance to its
// initial state with its table intact — the next run equals the first
// and that of a fresh bound instance, choice stream included.
func TestBoundResetReplays(t *testing.T) {
	opts := engine.Options{Seed: 21}
	fresh := newLaneMerger(t, opts, bothTemplates())
	want := fresh.drive(t, 9)
	fresh.m.Close()

	lm := newLaneMerger(t, opts, bothTemplates())
	for round := 0; round < 3; round++ {
		if got := lm.drive(t, 9); !reflect.DeepEqual(want, got) {
			t.Errorf("round %d differs from a fresh bound instance\nfresh:    %+v\nrecycled: %+v", round, want, got)
		}
		lm.m.Close()
		if err := lm.m.Reset(); err != nil {
			t.Fatal(err)
		}
		for i, e := range lm.engs {
			if !e.Generated() {
				t.Fatalf("round %d: region %d lost its template in Reset", round, i)
			}
		}
	}
	lm.m.Close()
}

// TestBoundFireSteadyAllocs: a Send+Recv pair on a warmed bound lane
// allocates nothing, like the interpreted one.
func TestBoundFireSteadyAllocs(t *testing.T) {
	lm := newLaneMerger(t, engine.Options{}, bothTemplates())
	defer lm.m.Close()
	pair := func() {
		if err := lm.m.Send(lm.a, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := lm.m.Recv(lm.b); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Errorf("%v allocs per Send+Recv pair on a bound lane, want 0", allocs)
	}
}
