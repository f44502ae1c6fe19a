package ca_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/connlib"
	"repro/internal/explore"
	"repro/internal/parser"
	"repro/internal/sema"
)

// assemble runs one definition through the front end and instantiates it.
func assemble(src, name string, funcs compile.Funcs, lengths map[string]int) (*compile.Assembly, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	tmpl, err := compile.Build(info, name, funcs, compile.Options{Simplify: true})
	if err != nil {
		return nil, err
	}
	return tmpl.Instantiate(lengths)
}

func funcPtr(f any) uintptr { return reflect.ValueOf(f).Pointer() }

// sameCluster reports the first difference between two clusters, or "".
func sameCluster(a, b *ca.Cluster) string {
	switch {
	case !a.Sync.Equal(b.Sync):
		return fmt.Sprintf("sync %v vs %v", a.Sync, b.Sync)
	case !reflect.DeepEqual(a.Deltas, b.Deltas):
		return fmt.Sprintf("targets %v vs %v", a.Deltas, b.Deltas)
	case len(a.Guards) != len(b.Guards):
		return fmt.Sprintf("%d vs %d guards", len(a.Guards), len(b.Guards))
	case len(a.Acts) != len(b.Acts):
		return fmt.Sprintf("%d vs %d actions", len(a.Acts), len(b.Acts))
	}
	for i := range a.Guards {
		g, h := &a.Guards[i], &b.Guards[i]
		if !reflect.DeepEqual(g.In, h.In) || g.Name != h.Name || funcPtr(g.Pred) != funcPtr(h.Pred) {
			return fmt.Sprintf("guard %d: %s(%v) vs %s(%v)", i, g.Name, g.In, h.Name, h.In)
		}
	}
	for i := range a.Acts {
		x, y := &a.Acts[i], &b.Acts[i]
		if !reflect.DeepEqual(x.Dst, y.Dst) || !reflect.DeepEqual(x.Src, y.Src) ||
			funcPtr(x.Xform) != funcPtr(y.Xform) || !reflect.DeepEqual(x.XformNames, y.XformNames) {
			return fmt.Sprintf("action %d: %v:=%v vs %v:=%v", i, x.Dst, x.Src, y.Dst, y.Src)
		}
	}
	return ""
}

// walkWarmVsCold random-walks the reachable composite states of auts
// with one Expander that keeps its memo, and at every state requires the
// steps it lists to equal, one for one and in order, those of an Expander
// that has never seen anything.
func walkWarmVsCold(t *testing.T, what string, auts []*ca.Automaton, steps int, r *rand.Rand) {
	t.Helper()
	warm := ca.NewExpander(auts, ca.ExpandConnected)
	state := make([]int32, len(auts))
	restart := func() {
		for i, a := range auts {
			state[i] = a.Initial
		}
	}
	restart()
	var got, want []*ca.Cluster
	for s := 0; s < steps; s++ {
		got = warm.Expand(state, got[:0])
		want = ca.NewExpander(auts, ca.ExpandConnected).Expand(state, want[:0])
		if len(got) != len(want) {
			t.Fatalf("%s: state %v (walk step %d): %d steps memoised, %d enumerated", what, state, s, len(got), len(want))
		}
		for i := range got {
			if diff := sameCluster(got[i], want[i]); diff != "" {
				t.Fatalf("%s: state %v (walk step %d): step %d of %d differs: %s", what, state, s, i, len(got), diff)
			}
		}
		if len(got) == 0 {
			restart()
			continue
		}
		got[r.Intn(len(got))].Apply(state)
	}
}

// TestExpanderMemoMatchesEnumeration: the cluster memo is invisible.
func TestExpanderMemoMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, d := range connlib.All() {
		for _, n := range []int{2, 5, 8} {
			if n < d.MinN {
				continue
			}
			asm, err := assemble(d.Src, d.DefName(), compile.Funcs{}, d.Lengths(n))
			if err != nil {
				t.Fatalf("%s/n%d: %v", d.Name, n, err)
			}
			walkWarmVsCold(t, fmt.Sprintf("%s/n%d", d.Name, n), asm.Auts, 300, r)
		}
	}
	walked := 0
	for seed := int64(1); seed <= 240; seed++ {
		c := explore.GenerateConn(seed, explore.GenConfig{})
		asm, err := assemble(c.Source(), c.Name(), explore.Funcs(), c.Lengths())
		if err != nil {
			continue // the grammar's rare rejects; explore retries them too
		}
		walkWarmVsCold(t, fmt.Sprintf("grammar seed %d", seed), asm.Auts, 80, r)
		walked++
	}
	if walked < 200 {
		t.Errorf("only %d of 240 generated connectors compiled; want at least 200 walked", walked)
	}
}

// TestExpanderKeyHoldsPrunedRead: a constituent that is pulled into a
// cluster but offers no compatible transition contributes nothing to any
// step — and still decides the outcome, so its local state must be part
// of the memo key. Here b is forced by a's only transition and can follow
// it in local state 1 but not in local state 0.
func TestExpanderKeyHoldsPrunedRead(t *testing.T) {
	u := ca.NewUniverse()
	p, q, r := u.Port("p"), u.Port("q"), u.Port("r")
	a := ca.NewBuilder(u, "a", 1, 0).T(0, 0).Sync(p, q).Done().Build()
	b := ca.NewBuilder(u, "b", 2, 0).
		T(0, 1).Sync(r).Done().
		T(1, 0).Sync(q).Done().
		Build()
	x := ca.NewExpander([]*ca.Automaton{a, b}, ca.ExpandConnected)
	for round, tc := range []struct {
		state []int32
		sync  ca.BitSet
	}{
		{[]int32{0, 0}, u.SetOf(r)},    // a's step is pruned by b; b moves alone
		{[]int32{0, 1}, u.SetOf(p, q)}, // same seed transition, b now follows
		{[]int32{0, 0}, u.SetOf(r)},    // and the first answer is still there
	} {
		got := x.Expand(tc.state, nil)
		if len(got) != 1 || !got[0].Sync.Equal(tc.sync) {
			t.Fatalf("round %d, state %v: got %d steps %v, want exactly %v", round, tc.state, len(got), syncs(got), tc.sync)
		}
	}
}

func syncs(cs []*ca.Cluster) []ca.BitSet {
	out := make([]ca.BitSet, len(cs))
	for i, c := range cs {
		out[i] = c.Sync
	}
	return out
}
