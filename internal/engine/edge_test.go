package engine_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

// TestAOTTooLargeFails: ahead-of-time composition must refuse state
// spaces beyond the limit at construction time.
func TestAOTTooLargeFails(t *testing.T) {
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	for i := 0; i < 12; i++ {
		a := u.FreshPort("a")
		b := u.FreshPort("b")
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		auts = append(auts, prim.Fifo1(u, a, b))
	}
	_, err := engine.New(u, auts, engine.Options{Composition: engine.AOT, MaxStates: 100})
	if err == nil {
		t.Fatal("AOT accepted a 2^12-state space with limit 100")
	}
	// JIT with the same inputs must construct instantly.
	e, err := engine.New(u, auts, engine.Options{Composition: engine.JIT, MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestLivelockDetected: a token ring with no boundary gating spins
// internally; the engine must detect the τ-burst and fail pending
// operations instead of hanging.
func TestLivelockDetected(t *testing.T) {
	u := ca.NewUniverse()
	r1, r2 := u.Port("r1"), u.Port("r2")
	x, y := u.Port("x"), u.Port("y")
	u.SetDir(x, ca.DirSource)
	u.SetDir(y, ca.DirSink)
	auts := []*ca.Automaton{
		prim.Fifo1Full(u, r2, r1, "tok"), // internal ring
		prim.Fifo1(u, r1, r2),
		prim.Fifo1(u, x, y), // an honest lane so the engine has boundary work
	}
	e, err := engine.New(u, auts, engine.Options{MaxTauBurst: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	errc := make(chan error, 1)
	go func() { errc <- e.Send(x, 1) }()
	select {
	case err := <-errc:
		if err == nil {
			// The send may complete before the burst trips; the next
			// operation must then observe the broken engine.
			if _, err2 := e.Recv(y); err2 == nil {
				t.Fatal("livelock not detected")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine hung instead of detecting livelock")
	}
}

// TestExpansionCountsAndCache: revisiting composite states must hit the
// cache rather than re-expanding. A state is kept on its second visit, so
// each of the Fifo1's two states is expanded exactly twice — by the first
// Send (the empty state it starts in, the full one it leaves it in), then
// again when the first Recv and the second Send come back to them — and
// never after.
func TestExpansionCountsAndCache(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e, err := engine.New(u, []*ca.Automaton{prim.Fifo1(u, a, b)}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 50; i++ {
		if err := e.Send(a, i); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Recv(b); err != nil {
			t.Fatal(err)
		}
	}
	if e.Steps() != 100 {
		t.Errorf("steps = %d", e.Steps())
	}
	if e.Expansions() != 4 {
		t.Errorf("expansions = %d, want 4 (both fifo states, twice each)", e.Expansions())
	}
	if e.CachedStates() != 2 {
		t.Errorf("cached states = %d, want 2", e.CachedStates())
	}
}

// TestDeterministicWithSeed: identical seeds and op orders yield
// identical merger choices.
func TestDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []any {
		u := ca.NewUniverse()
		i1, i2, o := u.Port("i1"), u.Port("i2"), u.Port("o")
		u.SetDir(i1, ca.DirSource)
		u.SetDir(i2, ca.DirSource)
		u.SetDir(o, ca.DirSink)
		e, err := engine.New(u, []*ca.Automaton{prim.Merger(u, []ca.PortID{i1, i2}, o)},
			engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var got []any
		for r := 0; r < 10; r++ {
			done1 := make(chan struct{})
			done2 := make(chan struct{})
			// Both sends must be pending when the receive registers, or
			// the first fire has one candidate and draws nothing.
			want := e.OpsRegistered() + 2
			go func() { e.Send(i1, "a"); close(done1) }()
			go func() { e.Send(i2, "b"); close(done2) }()
			for e.OpsRegistered() < want {
				runtime.Gosched()
			}
			v, _ := e.Recv(o)
			got = append(got, v)
			v, _ = e.Recv(o)
			got = append(got, v)
			<-done1
			<-done2
		}
		return got
	}
	a := run(99)
	b := run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestMultiCloseIdempotent and step accounting across partitions.
func TestMultiAccounting(t *testing.T) {
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	var as, bs []ca.PortID
	for i := 0; i < 3; i++ {
		a := u.FreshPort("a")
		b := u.FreshPort("b")
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		as = append(as, a)
		bs = append(bs, b)
		auts = append(auts, prim.Fifo1(u, a, b))
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Send(as[i], i)
		m.Recv(bs[i])
	}
	if m.Steps() != 6 {
		t.Errorf("steps = %d, want 6", m.Steps())
	}
	if m.Expansions() == 0 {
		t.Error("no expansions recorded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := m.Send(as[0], 1); err != engine.ErrClosed {
		t.Errorf("post-close send: %v", err)
	}
}

// TestSendRecvOnForeignPort: operations on ports no partition owns fail
// cleanly.
func TestMultiForeignPort(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	m, err := engine.NewMultiRegions(u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stray := u.FreshPort("stray")
	if err := m.Send(stray, 1); err == nil {
		t.Error("send on unowned port accepted")
	}
}
