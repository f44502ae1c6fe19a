package ca_test

import (
	"testing"

	"repro/internal/ca"
	"repro/internal/prim"
)

func TestBitSetBasics(t *testing.T) {
	b := ca.NewBitSet(130)
	if !b.IsEmpty() {
		t.Fatal("new bitset not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	for _, i := range []ca.PortID{0, 64, 129} {
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Has(1) || b.Has(63) || b.Has(128) {
		t.Fatal("unexpected bit set")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("clear failed")
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Fatal("clone not equal")
	}
	c.Set(5)
	if c.Equal(b) {
		t.Fatal("clone aliases original")
	}
}

func TestBitSetOps(t *testing.T) {
	u := ca.NewUniverse()
	var ids []ca.PortID
	for i := 0; i < 70; i++ {
		ids = append(ids, u.FreshPort("p"))
	}
	a := u.SetOf(ids[0], ids[1], ids[65])
	b := u.SetOf(ids[1], ids[65], ids[69])
	if got := a.Or(b).Count(); got != 4 {
		t.Fatalf("or count = %d, want 4", got)
	}
	if !a.Intersects(b) {
		t.Fatal("intersects false")
	}
	if a.MaskedSubsetOf(a, b) {
		t.Fatal("a ⊆ b should be false")
	}
	if !a.MaskedSubsetOf(b, a) {
		t.Fatal("a∩b ⊆ a should be true")
	}
	d := u.NewSet()
	if d.SetAndNot(a, b); !d.Equal(u.SetOf(ids[0])) {
		t.Fatalf("a &^ b = %v, want {%d}", d, ids[0])
	}
	if d.SetAndNot(d, a); !d.IsEmpty() {
		t.Fatalf("aliased and-not left %v", d)
	}
	mask := u.SetOf(ids[1], ids[65])
	if !a.IntersectionEqual(b, mask) {
		t.Fatal("projections onto {1,65} should agree")
	}
	mask2 := u.SetOf(ids[0], ids[69])
	if a.IntersectionEqual(b, mask2) {
		t.Fatal("projections onto {0,69} should differ")
	}
}

func TestUniverseInterning(t *testing.T) {
	u := ca.NewUniverse()
	a := u.Port("a")
	a2 := u.Port("a")
	if a != a2 {
		t.Fatal("same name interned twice")
	}
	b := u.Port("b")
	if a == b {
		t.Fatal("distinct names collided")
	}
	if u.Name(a) != "a" || u.Name(b) != "b" {
		t.Fatal("name lookup broken")
	}
	f1 := u.FreshPort("x")
	f2 := u.FreshPort("x")
	if f1 == f2 {
		t.Fatal("fresh ports collided")
	}
	u.SetDir(a, ca.DirSource)
	if u.DirOf(a) != ca.DirSource || u.DirOf(b) != ca.DirNone {
		t.Fatal("dir bookkeeping broken")
	}
}

func TestUniverseCells(t *testing.T) {
	u := ca.NewUniverse()
	c1 := u.NewCell()
	c2 := u.NewCellInit("tok")
	cells := u.InitialCells()
	if cells[c1] != nil || cells[c2] != "tok" {
		t.Fatalf("initial cells = %v", cells)
	}
}

// syncTransfer fires the single transition of a Sync automaton by hand and
// checks data transfer through the Env machinery.
func TestSyncAutomatonFire(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	aut := prim.Sync(u, a, b)
	if aut.NumStates() != 1 || aut.NumTransitions() != 1 {
		t.Fatalf("sync shape: %d states %d trans", aut.NumStates(), aut.NumTransitions())
	}
	tr := &aut.Trans[0][0]
	env := ca.NewEnv(tr, u.InitialCells(), func(p ca.PortID) bool { return u.DirOf(p) == ca.DirSource },
		func(p ca.PortID) any { return 42 })
	res, err := env.Execute(func(p ca.PortID) bool { return u.DirOf(p) == ca.DirSink })
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[b] != 42 {
		t.Fatalf("delivered %v, want 42", res.Delivered[b])
	}
}

// TestProductSyncChain checks the key algebraic fact of §III-C: the
// pipeline composition of two sync channels behaves as one sync channel.
func TestProductSyncChain(t *testing.T) {
	u := ca.NewUniverse()
	a, m, b := u.Port("a"), u.Port("m"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	s1 := prim.Sync(u, a, m)
	s2 := prim.Sync(u, m, b)
	p, err := ca.Product(s1, s2, ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 1 {
		t.Fatalf("product states = %d, want 1", p.NumStates())
	}
	// The only transition must fire a, m, b together.
	if p.NumTransitions() != 1 {
		t.Fatalf("product transitions = %d, want 1: %s", p.NumTransitions(), p)
	}
	tr := p.Trans[0][0]
	want := u.SetOf(a, m, b)
	if !tr.Sync.Equal(want) {
		t.Fatalf("sync = %v, want %v", u.PortSetNames(tr.Sync), u.PortSetNames(want))
	}

	// Hide m, then fire: value must flow a -> b through the chain.
	h := ca.Hide(p, u.SetOf(m))
	tr2 := &h.Trans[0][0]
	if tr2.Sync.Has(m) {
		t.Fatal("hidden port still in sync set")
	}
	env := ca.NewEnv(tr2, nil, func(p ca.PortID) bool { return p == a },
		func(ca.PortID) any { return "msg" })
	res, err := env.Execute(func(p ca.PortID) bool { return p == b })
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[b] != "msg" {
		t.Fatalf("delivered %v through hidden chain, want msg", res.Delivered[b])
	}

	// Simplify must contract the chain: single action b := a.
	s, err := ca.Simplify(h, func(p ca.PortID) bool { return p == a || p == b })
	if err != nil {
		t.Fatal(err)
	}
	st := s.Trans[0][0]
	if len(st.Acts) != 1 {
		t.Fatalf("simplified acts = %d, want 1", len(st.Acts))
	}
	act := st.Acts[0]
	if act.Dst.Kind != ca.LocPort || act.Dst.Port != b || act.Src.Kind != ca.LocPort || act.Src.Port != a {
		t.Fatalf("simplified action = %+v, want b := a", act)
	}
}

func TestProductCommutative(t *testing.T) {
	u := ca.NewUniverse()
	a, m, b := u.Port("a"), u.Port("m"), u.Port("b")
	f1 := prim.Fifo1(u, a, m)
	f2 := prim.Fifo1(u, m, b)
	p12, err := ca.Product(f1, f2, ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	p21, err := ca.Product(f2, f1, ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if p12.NumStates() != p21.NumStates() || p12.NumTransitions() != p21.NumTransitions() {
		t.Fatalf("product not commutative up to size: %d/%d vs %d/%d",
			p12.NumStates(), p12.NumTransitions(), p21.NumStates(), p21.NumTransitions())
	}
}

// TestFifoChainProduct: two fifo1 in a row give a 2-capacity buffer with
// an internal τ move after hiding the middle vertex.
func TestFifoChainProduct(t *testing.T) {
	u := ca.NewUniverse()
	a, m, b := u.Port("a"), u.Port("m"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	p, err := ca.Product(prim.Fifo1(u, a, m), prim.Fifo1(u, m, b), ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", p.NumStates())
	}
	h := ca.Hide(p, u.SetOf(m))
	// From (full, empty) there must be a τ transition moving the datum.
	tau := 0
	for _, ts := range h.Trans {
		for _, tr := range ts {
			if tr.Sync.IsEmpty() {
				tau++
			}
		}
	}
	if tau == 0 {
		t.Fatal("no τ transition after hiding middle of fifo chain")
	}
}

func TestExpandConnectedVsFull(t *testing.T) {
	// Two independent syncs: connected mode must not combine them;
	// full mode must offer the combined step too.
	u := ca.NewUniverse()
	a1, b1 := u.Port("a1"), u.Port("b1")
	a2, b2 := u.Port("a2"), u.Port("b2")
	auts := []*ca.Automaton{prim.Sync(u, a1, b1), prim.Sync(u, a2, b2)}
	states := []int32{0, 0}

	conn := ca.NewExpander(auts, ca.ExpandConnected).Expand(states, nil)
	if len(conn) != 2 {
		t.Fatalf("connected joints = %d, want 2", len(conn))
	}
	full := ca.NewExpander(auts, ca.ExpandFull).Expand(states, nil)
	if len(full) != 3 {
		t.Fatalf("full joints = %d, want 3 (two solos + combo)", len(full))
	}
}

func TestExpandConnectedReplicatorCluster(t *testing.T) {
	// Writer -> replicator -> two readers: the only global step fires
	// all four automata, even though the two readers share no ports
	// with each other (the cluster is connected through the replicator).
	u := ca.NewUniverse()
	x, in := u.Port("x"), u.Port("in")
	o1, o2 := u.Port("o1"), u.Port("o2")
	y1, y2 := u.Port("y1"), u.Port("y2")
	auts := []*ca.Automaton{
		prim.Sync(u, x, in),
		prim.Replicator(u, in, []ca.PortID{o1, o2}),
		prim.Sync(u, o1, y1),
		prim.Sync(u, o2, y2),
	}
	joints := ca.NewExpander(auts, ca.ExpandConnected).Expand([]int32{0, 0, 0, 0}, nil)
	if len(joints) != 1 {
		t.Fatalf("joints = %d, want 1", len(joints))
	}
	want := u.SetOf(x, in, o1, o2, y1, y2)
	if !joints[0].Sync.Equal(want) {
		t.Fatalf("joint sync = %v", u.PortSetNames(joints[0].Sync))
	}
}

func TestExpandNoDuplicates(t *testing.T) {
	// A merger with two inputs has exactly two global steps per round.
	u := ca.NewUniverse()
	i1, i2, o := u.Port("i1"), u.Port("i2"), u.Port("o")
	m := prim.Merger(u, []ca.PortID{i1, i2}, o)
	recv := prim.Sync(u, o, u.Port("sink"))
	joints := ca.NewExpander([]*ca.Automaton{m, recv}, ca.ExpandConnected).Expand([]int32{0, 0}, nil)
	if len(joints) != 2 {
		t.Fatalf("joints = %d, want 2", len(joints))
	}
}

func TestProductAllLimit(t *testing.T) {
	// 8 independent fifos: 2^8 states; a limit of 10 must trip.
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	for i := 0; i < 8; i++ {
		a := u.FreshPort("a")
		b := u.FreshPort("b")
		auts = append(auts, prim.Fifo1(u, a, b))
	}
	_, err := ca.ProductAll(auts, ca.ExpandConnected, ca.ProductLimits{MaxStates: 10})
	if err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestSeqPrimitive(t *testing.T) {
	u := ca.NewUniverse()
	t1, t2, t3 := u.Port("t1"), u.Port("t2"), u.Port("t3")
	s := prim.Seq(u, []ca.PortID{t1, t2, t3})
	if s.NumStates() != 3 {
		t.Fatalf("states = %d", s.NumStates())
	}
	// State 0 only fires t1; state 1 only t2; state 2 only t3.
	for i, want := range []ca.PortID{t1, t2, t3} {
		ts := s.Trans[i]
		if len(ts) != 1 || !ts[0].Sync.Equal(u.SetOf(want)) {
			t.Fatalf("state %d transitions wrong", i)
		}
		if ts[0].Target != int32((i+1)%3) {
			t.Fatalf("state %d target = %d", i, ts[0].Target)
		}
	}
}

func TestFifoKShape(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	f := prim.FifoK(u, a, b, 3)
	// Reachable behavior: from empty, 3 accepts then must emit.
	st := f.Initial
	for i := 0; i < 3; i++ {
		var next int32 = -1
		for _, tr := range f.Trans[st] {
			if tr.Sync.Has(a) {
				next = tr.Target
			}
		}
		if next < 0 {
			t.Fatalf("accept %d unavailable", i)
		}
		st = next
	}
	for _, tr := range f.Trans[st] {
		if tr.Sync.Has(a) {
			t.Fatal("fifo3 accepted a 4th element")
		}
	}
}

func TestInstantiateInto(t *testing.T) {
	// Template in its own universe; instantiate twice into a target
	// universe; cells must be fresh per instance.
	tu := ca.NewUniverse()
	a, b := tu.Port("a"), tu.Port("b")
	tmpl := prim.Fifo1Full(tu, a, b, "tok")

	du := ca.NewUniverse()
	x1, y1 := du.Port("x1"), du.Port("y1")
	x2, y2 := du.Port("x2"), du.Port("y2")
	i1, m1 := ca.InstantiateInto(tmpl, du, map[ca.PortID]ca.PortID{a: x1, b: y1}, "i1")
	i2, _ := ca.InstantiateInto(tmpl, du, map[ca.PortID]ca.PortID{a: x2, b: y2}, "i2")
	if m1[a] != x1 || m1[b] != y1 {
		t.Fatal("port map not honored")
	}
	if du.NumCells() != 2 {
		t.Fatalf("cells = %d, want 2 (one per instance)", du.NumCells())
	}
	cells := du.InitialCells()
	if cells[0] != "tok" || cells[1] != "tok" {
		t.Fatalf("initial cell values = %v", cells)
	}
	if !i1.Ports.Equal(du.SetOf(x1, y1)) || !i2.Ports.Equal(du.SetOf(x2, y2)) {
		t.Fatal("instantiated port sets wrong")
	}
	if i1.Initial != 1 {
		t.Fatal("initially-full fifo must start in state 1")
	}
}

func TestRemapPorts(t *testing.T) {
	u := ca.NewUniverse()
	a, b, c := u.Port("a"), u.Port("b"), u.Port("c")
	s := prim.Sync(u, a, b)
	r := ca.RemapPorts(s, map[ca.PortID]ca.PortID{b: c})
	if !r.Ports.Equal(u.SetOf(a, c)) {
		t.Fatalf("remapped ports = %v", u.PortSetNames(r.Ports))
	}
	tr := r.Trans[0][0]
	if !tr.Sync.Equal(u.SetOf(a, c)) {
		t.Fatal("sync not remapped")
	}
	if tr.Acts[0].Dst.Port != c {
		t.Fatal("action dst not remapped")
	}
}

func TestHideDropsUnobservableSelfLoop(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	d := prim.SyncDrain(u, a, b)
	h := ca.Hide(d, u.SetOf(a, b))
	if h.NumTransitions() != 0 {
		t.Fatalf("unobservable self-loop survived hide: %s", h)
	}
}

func TestSimplifyGuardChain(t *testing.T) {
	// filter even on a -> m, sync m -> b; hide m; simplified guard must
	// test the value at a.
	u := ca.NewUniverse()
	a, m, b := u.Port("a"), u.Port("m"), u.Port("b")
	even := func(v any) bool { return v.(int)%2 == 0 }
	f := prim.Filter(u, a, m, "even", even)
	s := prim.Sync(u, m, b)
	p, err := ca.Product(f, s, ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	h := ca.Hide(p, u.SetOf(m))
	simp, err := ca.Simplify(h, func(p ca.PortID) bool { return p == a || p == b })
	if err != nil {
		t.Fatal(err)
	}
	// Find the transition with {a,b}: guard must reference a.
	found := false
	for _, tr := range simp.Trans[0] {
		if tr.Sync.Equal(u.SetOf(a, b)) {
			found = true
			for _, g := range tr.Guards {
				if g.In.Kind != ca.LocPort || g.In.Port != a {
					t.Fatalf("guard in = %+v, want port a", g.In)
				}
			}
		}
	}
	if !found {
		t.Fatal("no {a,b} transition in simplified filter chain")
	}
}
