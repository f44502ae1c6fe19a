package engine_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

const tick = 50 * time.Millisecond

// must waits for f to finish within a deadline, failing the test on
// timeout — catches engine deadlocks without hanging the suite.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("timeout waiting for %s", what)
	}
}

func newEngine(t *testing.T, u *ca.Universe, auts []*ca.Automaton, opts engine.Options) *engine.Engine {
	t.Helper()
	e, err := engine.New(u, auts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEngineSyncTransfersValue(t *testing.T) {
	for _, comp := range []engine.Composition{engine.JIT, engine.AOT} {
		t.Run(fmt.Sprint(comp), func(t *testing.T) {
			u := ca.NewUniverse()
			a, b := u.Port("a"), u.Port("b")
			u.SetDir(a, ca.DirSource)
			u.SetDir(b, ca.DirSink)
			e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{Composition: comp})

			within(t, 5*time.Second, "sync transfer", func() {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := e.Send(a, 7); err != nil {
						t.Errorf("send: %v", err)
					}
				}()
				v, err := e.Recv(b)
				if err != nil {
					t.Errorf("recv: %v", err)
				}
				if v != 7 {
					t.Errorf("recv = %v, want 7", v)
				}
				wg.Wait()
			})
			if e.Steps() != 1 {
				t.Errorf("steps = %d, want 1", e.Steps())
			}
		})
	}
}

func TestEngineSendBlocksUntilRecv(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})

	sent := make(chan struct{})
	go func() {
		e.Send(a, 1)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("send on sync completed without a receiver")
	case <-time.After(tick):
	}
	within(t, 5*time.Second, "recv", func() { e.Recv(b) })
	within(t, 5*time.Second, "send completion", func() { <-sent })
}

func TestEngineFifo1Decouples(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Fifo1(u, a, b)}, engine.Options{})

	within(t, 5*time.Second, "buffered send", func() {
		if err := e.Send(a, "x"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	within(t, 5*time.Second, "buffered recv", func() {
		v, err := e.Recv(b)
		if err != nil || v != "x" {
			t.Errorf("recv = %v, %v", v, err)
		}
	})
}

func TestEngineFifo1FullInitialToken(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Fifo1Full(u, a, b, "tok")}, engine.Options{})

	within(t, 5*time.Second, "initial token recv", func() {
		v, err := e.Recv(b)
		if err != nil || v != "tok" {
			t.Errorf("recv = %v, %v", v, err)
		}
	})
}

// TestEngineFifoChainTau: fifo1(a;m) × fifo1(m;b), m hidden. The datum
// must shuffle through the internal vertex by a spontaneous τ step so both
// buffer slots can be used.
func TestEngineFifoChainTau(t *testing.T) {
	u := ca.NewUniverse()
	a, m, b := u.Port("a"), u.Port("m"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	f1 := ca.Hide(prim.Fifo1(u, a, m), u.SetOf())
	f2 := prim.Fifo1(u, m, b)
	p, err := ca.Product(f1, f2, ca.ProductLimits{})
	if err != nil {
		t.Fatal(err)
	}
	h := ca.Hide(p, u.SetOf(m))
	e := newEngine(t, u, []*ca.Automaton{h}, engine.Options{})

	within(t, 5*time.Second, "two buffered sends", func() {
		e.Send(a, 1)
		e.Send(a, 2)
	})
	within(t, 5*time.Second, "ordered recvs", func() {
		v1, _ := e.Recv(b)
		v2, _ := e.Recv(b)
		if v1 != 1 || v2 != 2 {
			t.Errorf("recvs = %v, %v; want 1, 2", v1, v2)
		}
	})
}

func TestEngineMergerDeliversAll(t *testing.T) {
	u := ca.NewUniverse()
	const n = 8
	var ins []ca.PortID
	for i := 0; i < n; i++ {
		p := u.Port(fmt.Sprintf("in%d", i))
		u.SetDir(p, ca.DirSource)
		ins = append(ins, p)
	}
	out := u.Port("out")
	u.SetDir(out, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Merger(u, ins, out)}, engine.Options{Seed: 1})

	within(t, 10*time.Second, "merger round", func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e.Send(ins[i], i)
			}(i)
		}
		got := map[any]bool{}
		for i := 0; i < n; i++ {
			v, err := e.Recv(out)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if got[v] {
				t.Errorf("duplicate %v", v)
			}
			got[v] = true
		}
		wg.Wait()
		if len(got) != n {
			t.Errorf("got %d distinct values, want %d", len(got), n)
		}
	})
}

func TestEngineReplicatorBroadcast(t *testing.T) {
	u := ca.NewUniverse()
	in := u.Port("in")
	u.SetDir(in, ca.DirSource)
	outs := []ca.PortID{u.Port("o1"), u.Port("o2"), u.Port("o3")}
	for _, o := range outs {
		u.SetDir(o, ca.DirSink)
	}
	e := newEngine(t, u, []*ca.Automaton{prim.Replicator(u, in, outs)}, engine.Options{})

	within(t, 5*time.Second, "broadcast", func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); e.Send(in, "bc") }()
		for _, o := range outs {
			wg.Add(1)
			go func(o ca.PortID) {
				defer wg.Done()
				v, err := e.Recv(o)
				if err != nil || v != "bc" {
					t.Errorf("recv(%d) = %v, %v", o, v, err)
				}
			}(o)
		}
		wg.Wait()
	})
	if e.Steps() != 1 {
		t.Errorf("broadcast steps = %d, want 1 (single global step)", e.Steps())
	}
}

func TestEngineRouterExclusive(t *testing.T) {
	u := ca.NewUniverse()
	in := u.Port("in")
	u.SetDir(in, ca.DirSource)
	o1, o2 := u.Port("o1"), u.Port("o2")
	u.SetDir(o1, ca.DirSink)
	u.SetDir(o2, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Router(u, in, []ca.PortID{o1, o2})}, engine.Options{Seed: 42})

	// Only o2 has a pending recv: value must route there.
	within(t, 5*time.Second, "exclusive route", func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); e.Send(in, 9) }()
		v, err := e.Recv(o2)
		if err != nil || v != 9 {
			t.Errorf("recv = %v, %v", v, err)
		}
		wg.Wait()
	})
}

// TestEngineExample1 wires the paper's running example (Fig. 5) from
// primitives and checks the protocol: the communication from A to C
// strictly precedes the communication from B to C, with B's send blocked
// until C received A's message.
func TestEngineExample1(t *testing.T) {
	for _, comp := range []engine.Composition{engine.JIT, engine.AOT} {
		t.Run(fmt.Sprint(comp), func(t *testing.T) {
			u := ca.NewUniverse()
			tl1, tl2 := u.Port("tl1"), u.Port("tl2")
			hd1, hd2 := u.Port("hd1"), u.Port("hd2")
			prev1, prev2 := u.Port("prev1"), u.Port("prev2")
			next1, next2 := u.Port("next1"), u.Port("next2")
			v1, v2 := u.Port("v1"), u.Port("v2")
			w1, w2 := u.Port("w1"), u.Port("w2")
			u.SetDir(tl1, ca.DirSource)
			u.SetDir(tl2, ca.DirSource)
			u.SetDir(hd1, ca.DirSink)
			u.SetDir(hd2, ca.DirSink)

			// Internal vertices keep DirNone: the engine synchronizes
			// constituents on them without requiring pending operations.
			auts := []*ca.Automaton{
				prim.Replicator(u, tl1, []ca.PortID{prev1, v1}),
				prim.Replicator(u, tl2, []ca.PortID{prev2, v2}),
				prim.Fifo1(u, v1, w1),
				prim.Fifo1(u, v2, w2),
				prim.Replicator(u, w1, []ca.PortID{next1, hd1}),
				prim.Replicator(u, w2, []ca.PortID{next2, hd2}),
				prim.Seq(u, []ca.PortID{next1, prev2}),
				prim.Seq(u, []ca.PortID{prev1, next2}),
			}
			e := newEngine(t, u, auts, engine.Options{Composition: comp})

			within(t, 10*time.Second, "example 1 protocol", func() {
				aSent := make(chan struct{})
				bSent := make(chan struct{})
				go func() { e.Send(tl1, "from A"); close(aSent) }()
				<-aSent // A's send completes immediately (fifo empty)

				go func() { e.Send(tl2, "from B"); close(bSent) }()
				select {
				case <-bSent:
					t.Error("B's send completed before C received A's message")
				case <-time.After(tick):
				}

				v, err := e.Recv(hd1)
				if err != nil || v != "from A" {
					t.Errorf("C first recv = %v, %v", v, err)
				}
				<-bSent // now B's send must complete
				v, err = e.Recv(hd2)
				if err != nil || v != "from B" {
					t.Errorf("C second recv = %v, %v", v, err)
				}
			})
		})
	}
}

func TestEngineFilterDropsAndPasses(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	even := func(v any) bool { return v.(int)%2 == 0 }
	e := newEngine(t, u, []*ca.Automaton{prim.Filter(u, a, b, "even", even)}, engine.Options{})

	within(t, 10*time.Second, "filter", func() {
		go func() {
			for i := 1; i <= 6; i++ {
				e.Send(a, i)
			}
		}()
		var got []int
		for len(got) < 3 {
			v, err := e.Recv(b)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, v.(int))
		}
		want := []int{2, 4, 6}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("got %v, want %v", got, want)
			}
		}
	})
}

func TestEngineFilterOddDroppedWithoutReceiver(t *testing.T) {
	// A filtered-out value must complete the send even with no receiver.
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	even := func(v any) bool { return v.(int)%2 == 0 }
	e := newEngine(t, u, []*ca.Automaton{prim.Filter(u, a, b, "even", even)}, engine.Options{})
	within(t, 5*time.Second, "dropped send", func() {
		if err := e.Send(a, 3); err != nil {
			t.Errorf("send: %v", err)
		}
	})
}

func TestEngineTransformer(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	double := func(v any) any { return v.(int) * 2 }
	e := newEngine(t, u, []*ca.Automaton{prim.Transformer(u, a, b, "double", double)}, engine.Options{})
	within(t, 5*time.Second, "transform", func() {
		go e.Send(a, 21)
		v, err := e.Recv(b)
		if err != nil || v != 42 {
			t.Errorf("recv = %v, %v; want 42", v, err)
		}
	})
}

func TestEngineValveToggle(t *testing.T) {
	u := ca.NewUniverse()
	a, b, ctl := u.Port("a"), u.Port("b"), u.Port("ctl")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	u.SetDir(ctl, ca.DirSource)
	e := newEngine(t, u, []*ca.Automaton{prim.Valve1(u, a, b, ctl)}, engine.Options{})

	within(t, 10*time.Second, "valve", func() {
		// Open: flows.
		go e.Send(a, 1)
		if v, _ := e.Recv(b); v != 1 {
			t.Error("open valve blocked")
		}
		// Close it.
		e.Send(ctl, prim.Token{})
		sent := make(chan struct{})
		go func() { e.Send(a, 2); close(sent) }()
		recvd := make(chan struct{})
		go func() { e.Recv(b); close(recvd) }()
		select {
		case <-recvd:
			t.Error("closed valve let data through")
		case <-time.After(tick):
		}
		// Reopen: the stuck pair must complete.
		e.Send(ctl, prim.Token{})
		<-sent
		<-recvd
	})
}

func TestEngineCloseUnblocks(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})

	errc := make(chan error, 1)
	go func() {
		errc <- e.Send(a, 1)
	}()
	engine.WaitParked(t, e, 1)
	e.Close()
	within(t, 5*time.Second, "unblock on close", func() {
		if err := <-errc; err != engine.ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
	if err := e.Send(a, 2); err != engine.ErrClosed {
		t.Errorf("post-close send err = %v", err)
	}
}

func TestEnginePortBusy(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})
	parked := make(chan error, 1)
	go func() { parked <- e.Send(a, 1) }()
	engine.WaitParked(t, e, 1)
	if err := e.Send(a, 2); err != engine.ErrPortBusy {
		t.Errorf("err = %v, want ErrPortBusy", err)
	}
	// The refused operation must leave the parked one intact: it still
	// completes with its own value.
	within(t, 5*time.Second, "parked send", func() {
		if v, err := e.Recv(b); err != nil || v != 1 {
			t.Errorf("recv = %v, %v; want 1", v, err)
		}
		if err := <-parked; err != nil {
			t.Errorf("parked send err = %v", err)
		}
	})
}

func TestEngineWrongDirection(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})
	if err := e.Send(b, 1); err == nil {
		t.Error("send on sink port must fail")
	}
	if _, err := e.Recv(a); err == nil {
		t.Error("recv on source port must fail")
	}
}

func TestEngineBoundedCacheCorrect(t *testing.T) {
	// A chain of independent fifos visits many composite states; a tiny
	// cache must still behave correctly (re-expand the states it could not
	// keep). The lru, fifo and random runs keep the names of the eviction
	// policies this cache replaced, at the bound of 2 they ran at: with
	// the policy gone, each is the same admission cache under a fresh
	// goroutine interleaving.
	for _, cc := range []struct {
		name string
		size int
	}{{"cap=1", 1}, {"lru", 2}, {"fifo", 2}, {"random", 2}} {
		size := cc.size
		t.Run(cc.name, func(t *testing.T) {
			u := ca.NewUniverse()
			const n = 4
			var auts []*ca.Automaton
			var as, bs []ca.PortID
			for i := 0; i < n; i++ {
				a := u.Port(fmt.Sprintf("a%d", i))
				b := u.Port(fmt.Sprintf("b%d", i))
				u.SetDir(a, ca.DirSource)
				u.SetDir(b, ca.DirSink)
				as = append(as, a)
				bs = append(bs, b)
				auts = append(auts, prim.Fifo1(u, a, b))
			}
			e := newEngine(t, u, auts, engine.Options{CacheSize: size, Seed: 7})

			within(t, 10*time.Second, "bounded cache run", func() {
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for r := 0; r < 20; r++ {
							e.Send(as[i], r)
						}
					}(i)
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for r := 0; r < 20; r++ {
							v, err := e.Recv(bs[i])
							if err != nil || v != r {
								t.Errorf("fifo %d recv = %v, %v; want %d", i, v, err, r)
								return
							}
						}
					}(i)
				}
				wg.Wait()
			})
			// Every step changes the state, so 160 steps over 16 states
			// enter at least two of them twice: the bound is reached.
			if e.CachedStates() != size {
				t.Errorf("cache holds %d states, want its bound %d", e.CachedStates(), size)
			}
		})
	}
}

func TestMultiPartitionsIndependentSyncs(t *testing.T) {
	u := ca.NewUniverse()
	a1, b1 := u.Port("a1"), u.Port("b1")
	a2, b2 := u.Port("a2"), u.Port("b2")
	for _, p := range []ca.PortID{a1, a2} {
		u.SetDir(p, ca.DirSource)
	}
	for _, p := range []ca.PortID{b1, b2} {
		u.SetDir(p, ca.DirSink)
	}
	m, err := engine.NewMultiRegions(u, []*ca.Automaton{prim.Sync(u, a1, b1), prim.Sync(u, a2, b2)}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2", m.Partitions())
	}
	within(t, 5*time.Second, "both partitions", func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.Send(a1, 1) }()
		go func() { defer wg.Done(); m.Send(a2, 2) }()
		if v, _ := m.Recv(b1); v != 1 {
			t.Error("partition 1 wrong value")
		}
		if v, _ := m.Recv(b2); v != 2 {
			t.Error("partition 2 wrong value")
		}
		wg.Wait()
	})
}

func TestMultiKeepsCoupledTogether(t *testing.T) {
	u := ca.NewUniverse()
	a, mid, b := u.Port("a"), u.Port("m"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	m, err := engine.NewMultiRegions(u, []*ca.Automaton{prim.Sync(u, a, mid), prim.Sync(u, mid, b)}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Partitions() != 1 {
		t.Fatalf("partitions = %d, want 1 (shared vertex m)", m.Partitions())
	}
}

func TestEngineStepCounting(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e := newEngine(t, u, []*ca.Automaton{prim.Fifo1(u, a, b)}, engine.Options{})
	within(t, 10*time.Second, "counted rounds", func() {
		for i := 0; i < 10; i++ {
			e.Send(a, i)
			e.Recv(b)
		}
	})
	if e.Steps() != 20 {
		t.Errorf("steps = %d, want 20", e.Steps())
	}
}

// TestStepsCountedBeforeCompletion: a fire counts its step before it
// wakes the operations it completed, so a task whose Recv just returned
// never reads Steps() short of the items it received. Each round parks a
// Recv on a Sync, then Sends: the sender's fire completes both, and the
// woken receiver reads Steps() at once. The batch case parks a RecvBatch
// and completes it from a fused burst.
func TestStepsCountedBeforeCompletion(t *testing.T) {
	const rounds = 2000
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			u := ca.NewUniverse()
			a, b := u.Port("a"), u.Port("b")
			u.SetDir(a, ca.DirSource)
			u.SetDir(b, ca.DirSink)
			e := newEngine(t, u, []*ca.Automaton{prim.Sync(u, a, b)}, engine.Options{})
			vals := make([]any, k)
			for i := range vals {
				vals[i] = i
			}
			short := 0
			within(t, 30*time.Second, "parked receives", func() {
				for r := 1; r <= rounds; r++ {
					seen := make(chan int64, 1)
					go func() {
						buf := make([]any, k)
						if n, err := e.RecvBatch(b, buf); err != nil || n != k {
							t.Errorf("round %d: recv %d, %v", r, n, err)
						}
						seen <- e.Steps()
					}()
					engine.WaitParked(t, e, 1)
					if n, err := e.SendBatch(a, vals); err != nil || n != k {
						t.Fatalf("round %d: send %d, %v", r, n, err)
					}
					if got := <-seen; got < int64(r*k) {
						short++
					}
				}
			})
			if short > 0 {
				t.Errorf("%d of %d rounds read Steps() short of the items received", short, rounds)
			}
		})
	}
}
