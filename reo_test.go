package reo_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	reo "repro"
	"repro/internal/engine"
)

const tick = 50 * time.Millisecond

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

// waitParked returns once exactly n operations are parked on b and no
// pass of it is running or due: an exact barrier, not a timed one (see
// engine.AwaitIdle).
func waitParked(t *testing.T, b reo.Backend, n int) {
	t.Helper()
	if err := engine.AwaitIdle(b, func() int64 { return int64(n) }, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// srcEx11 is Fig. 8 of the paper: the running example for exactly two
// senders, in both monolithic (a) and composite (b) forms.
const srcEx11 = `
ConnectorEx11a(tl1,tl2;hd1,hd2) =
    Replicator(tl1;prev1,v1) mult Replicator(tl2;prev2,v2)
    mult Fifo1(v1;w1) mult Fifo1(v2;w2)
    mult Replicator(w1;next1,hd1) mult Replicator(w2;next2,hd2)
    mult Seq(next1,prev2;) mult Seq(prev1,next2;)

X(tl;prev,next,hd) =
    Replicator(tl;prev,v) mult Fifo1(v;w) mult Replicator(w;next,hd)

ConnectorEx11b(tl1,tl2;hd1,hd2) =
    X(tl1;prev1,next1,hd1) mult X(tl2;prev2,next2,hd2)
    mult Seq(next1,prev2;) mult Seq(prev1,next2;)
`

// srcEx11N is Fig. 9: the parametrized version for N senders.
const srcEx11N = `
X(tl;prev,next,hd) =
    Replicator(tl;prev,v) mult Fifo1(v;w) mult Replicator(w;next,hd)

ConnectorEx11N(tl[];hd[]) =
    if (#tl == 1) {
        Fifo1(tl[1];hd[1])
    } else {
        prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
        mult prod (i:1..#tl-1) Seq(next[i],prev[i+1];)
        mult Seq(prev[1],next[#tl];)
    }
`

func allModes() []reo.Mode { return []reo.Mode{reo.JIT, reo.AOT, reo.Static} }

// checkOrdered drives an ordered many-to-one connector: N senders, one
// receiver reading from hd[1..N]; sender i's k-th message must arrive
// in position i of round k.
func checkOrderedProtocol(t *testing.T, inst *reo.Instance, n, rounds int, tails string, heads string) {
	t.Helper()
	outs := inst.Outports(tails)
	ins := inst.Inports(heads)
	if len(outs) != n || len(ins) != n {
		t.Fatalf("ports: %d outs, %d ins; want %d each", len(outs), len(ins), n)
	}
	within(t, 30*time.Second, "ordered protocol", func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := outs[i].Send(fmt.Sprintf("%d/%d", i, r)); err != nil {
						t.Errorf("sender %d: %v", i, err)
						return
					}
				}
			}(i)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				v, err := ins[i].Recv()
				if err != nil {
					t.Fatalf("recv %d/%d: %v", i, r, err)
				}
				want := fmt.Sprintf("%d/%d", i, r)
				if v != want {
					t.Fatalf("recv = %v, want %s", v, want)
				}
			}
		}
		wg.Wait()
	})
}

func TestExample1TwoSenders(t *testing.T) {
	prog := reo.MustCompile(srcEx11)
	for _, def := range []string{"ConnectorEx11a", "ConnectorEx11b"} {
		for _, mode := range allModes() {
			t.Run(fmt.Sprintf("%s/%s", def, mode), func(t *testing.T) {
				conn, err := prog.Connector(def)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := conn.Connect(nil, reo.WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				defer inst.Close()

				within(t, 20*time.Second, "two-sender protocol", func() {
					aSent := make(chan struct{})
					bSent := make(chan struct{})
					go func() { inst.Outport("tl1").Send("A"); close(aSent) }()
					<-aSent
					go func() { inst.Outport("tl2").Send("B"); close(bSent) }()
					select {
					case <-bSent:
						t.Error("B completed before C received A's message")
					case <-time.After(tick):
					}
					v, err := inst.Inport("hd1").Recv()
					if err != nil || v != "A" {
						t.Errorf("first recv = %v, %v", v, err)
					}
					<-bSent
					v, err = inst.Inport("hd2").Recv()
					if err != nil || v != "B" {
						t.Errorf("second recv = %v, %v", v, err)
					}
				})
			})
		}
	}
}

func TestExample8Parametrized(t *testing.T) {
	prog := reo.MustCompile(srcEx11N)
	conn, err := prog.Connector("ConnectorEx11N")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, mode := range allModes() {
			t.Run(fmt.Sprintf("N=%d/%s", n, mode), func(t *testing.T) {
				inst, err := conn.Connect(map[string]int{"tl": n, "hd": n}, reo.WithMode(mode), reo.WithSeed(int64(n)))
				if err != nil {
					t.Fatal(err)
				}
				defer inst.Close()
				checkOrderedProtocol(t, inst, n, 3, "tl", "hd")
			})
		}
	}
}

// TestFlattenEquivalence mirrors Example 9: flattening ConnectorEx11b
// yields ConnectorEx11a up to associativity/commutativity — both must
// behave identically; here we check their instance shapes agree.
func TestFlattenEquivalence(t *testing.T) {
	prog := reo.MustCompile(srcEx11)
	a, err := prog.Connector("ConnectorEx11a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.Connector("ConnectorEx11b")
	if err != nil {
		t.Fatal(err)
	}
	ia, err := a.Connect(nil, reo.WithMode(reo.Static))
	if err != nil {
		t.Fatal(err)
	}
	defer ia.Close()
	ib, err := b.Connect(nil, reo.WithMode(reo.Static))
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()
	sa, sb := ia.Automata()[0], ib.Automata()[0]
	if sa.NumStates() != sb.NumStates() {
		t.Errorf("states: a=%d b=%d", sa.NumStates(), sb.NumStates())
	}
	if sa.NumTransitions() != sb.NumTransitions() {
		t.Errorf("transitions: a=%d b=%d", sa.NumTransitions(), sb.NumTransitions())
	}
}

func TestParametrizedSingleCompile(t *testing.T) {
	// One compilation serves all N — the headline capability. The same
	// template must instantiate at several N without recompiling.
	prog := reo.MustCompile(srcEx11N)
	conn, err := prog.Connector("ConnectorEx11N")
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 6; n++ {
		inst, err := conn.Connect(map[string]int{"tl": n, "hd": n})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got := len(inst.Outports("tl")); got != n {
			t.Errorf("N=%d: %d outports", n, got)
		}
		inst.Close()
	}
}

func TestMergerDSL(t *testing.T) {
	prog := reo.MustCompile(`
MergeAll(in[];out) = prod (i:1..#in) Sync(in[i];out)
`)
	conn, err := prog.Connector("MergeAll")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			inst, err := conn.Connect(map[string]int{"in": n}, reo.WithMode(mode), reo.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			outs := inst.Outports("in")
			within(t, 20*time.Second, "implicit merge", func() {
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) { defer wg.Done(); outs[i].Send(i) }(i)
				}
				seen := map[any]bool{}
				for i := 0; i < n; i++ {
					v, err := inst.Inport("out").Recv()
					if err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					if seen[v] {
						t.Errorf("duplicate %v", v)
					}
					seen[v] = true
				}
				wg.Wait()
			})
		})
	}
}

func TestBuiltinMergerRangeArg(t *testing.T) {
	prog := reo.MustCompile(`
MergeAll(in[];out) = Merger(in[1..#in];out)
`)
	conn, err := prog.Connector("MergeAll")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"in": 4}, reo.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	outs := inst.Outports("in")
	within(t, 10*time.Second, "variadic merger", func() {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); outs[i].Send(i * 10) }(i)
		}
		sum := 0
		for i := 0; i < 4; i++ {
			v, err := inst.Inport("out").Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			sum += v.(int)
		}
		if sum != 60 {
			t.Errorf("sum = %d, want 60", sum)
		}
		wg.Wait()
	})
}

func TestFilterTransformerFuncs(t *testing.T) {
	prog := reo.MustCompile(`
EvenDoubler(a;b) = Filter.even(a;m) mult Transformer.double(m;b)
`, reo.WithFuncs(reo.Funcs{
		Filters:      map[string]func(any) bool{"even": func(v any) bool { return v.(int)%2 == 0 }},
		Transformers: map[string]func(any) any{"double": func(v any) any { return v.(int) * 2 }},
	}))
	conn, err := prog.Connector("EvenDoubler")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			inst, err := conn.Connect(nil, reo.WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			within(t, 10*time.Second, "filter+transform", func() {
				go func() {
					for i := 1; i <= 4; i++ {
						inst.Outport("a").Send(i)
					}
				}()
				v1, _ := inst.Inport("b").Recv()
				v2, _ := inst.Inport("b").Recv()
				if v1 != 4 || v2 != 8 {
					t.Errorf("got %v, %v; want 4, 8", v1, v2)
				}
			})
		})
	}
}

func TestMissingFuncError(t *testing.T) {
	prog := reo.MustCompile(`F(a;b) = Filter.nope(a;b)`)
	_, err := prog.Connector("F")
	if err == nil {
		t.Fatal("expected error for unregistered filter")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown connector", `A(a;b) = Nope(a;b)`},
		{"recursive", `A(a;b) = A(a;b)`},
		{"mutually recursive", `A(a;b) = B(a;b)  B(a;b) = A(a;b)`},
		{"dup def", `A(a;b) = Sync(a;b)  A(a;b) = Sync(a;b)`},
		{"bad arity", `A(a;b) = Sync(a,a;b)`},
		{"scalar indexed", `A(a;b) = Sync(a[1];b)`},
		{"unknown var", `A(a[];b) = prod (i:1..#a) Sync(a[j];b)`},
		{"len of scalar", `A(a;b) = prod (i:1..#a) Sync(a;b)`},
		{"shadow primitive", `Sync(a;b) = Fifo1(a;b)`},
		{"array mixing", `A(a[];b) = Sync(m;b) mult Sync(a[1];m[2])`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := reo.Compile(tc.src); err == nil {
				t.Errorf("no error for %q", tc.src)
			}
		})
	}
}

func TestConnectErrors(t *testing.T) {
	prog := reo.MustCompile(srcEx11N)
	conn, err := prog.Connector("ConnectorEx11N")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Connect(nil); err == nil {
		t.Error("missing lengths accepted")
	}
	if _, err := conn.Connect(map[string]int{"tl": 0, "hd": 0}); err == nil {
		t.Error("zero length accepted (arrays are nonempty)")
	}
	if _, err := conn.Connect(map[string]int{"tl": 2, "hd": 2, "zz": 1}); err == nil {
		t.Error("unknown length key accepted")
	}
}

func TestStaticFailsOnHugeAutomaton(t *testing.T) {
	// N independent fifo pairs: 2^N composite states. Static must fail
	// at N where the new approach still connects instantly — the
	// dotted-bar cases of Fig. 12.
	prog := reo.MustCompile(`
Buffers(in[];out[]) = prod (i:1..#in) Fifo1(in[i];out[i])
`)
	conn, err := prog.Connector("Buffers")
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Connect(map[string]int{"in": 24, "out": 24},
		reo.WithMode(reo.Static), reo.WithMaxStates(1<<16))
	if err == nil {
		t.Fatal("static mode built a 2^24-state automaton?")
	}
	inst, err := conn.Connect(map[string]int{"in": 24, "out": 24}, reo.WithMode(reo.JIT))
	if err != nil {
		t.Fatalf("JIT should connect: %v", err)
	}
	inst.Close()
}

func TestPartitioningSplitsIndependent(t *testing.T) {
	prog := reo.MustCompile(`
Buffers(in[];out[]) = prod (i:1..#in) Fifo1(in[i];out[i])
`)
	conn, err := prog.Connector("Buffers")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"in": 8, "out": 8}, reo.WithPartitioning(reo.PartitionRegions))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Partitions() != 8 {
		t.Errorf("partitions = %d, want 8", inst.Partitions())
	}
	outs := inst.Outports("in")
	ins := inst.Inports("out")
	within(t, 10*time.Second, "partitioned round", func() {
		for i := 0; i < 8; i++ {
			outs[i].Send(i)
		}
		for i := 0; i < 8; i++ {
			v, err := ins[i].Recv()
			if err != nil || v != i {
				t.Errorf("recv %d = %v, %v", i, v, err)
			}
		}
	})
}

func TestModesObservablyEquivalent(t *testing.T) {
	// A deterministic pipeline: all modes must deliver the same stream.
	prog := reo.MustCompile(`
Pipe(a;b) = Fifo1(a;m1) mult Fifo1(m1;m2) mult Fifo1(m2;b)
`)
	conn, err := prog.Connector("Pipe")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			inst, err := conn.Connect(nil, reo.WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			within(t, 20*time.Second, "pipeline stream", func() {
				go func() {
					for i := 0; i < 50; i++ {
						inst.Outport("a").Send(i)
					}
				}()
				for i := 0; i < 50; i++ {
					v, err := inst.Inport("b").Recv()
					if err != nil || v != i {
						t.Fatalf("recv %d = %v, %v", i, v, err)
					}
				}
			})
		})
	}
}

func TestBoundedStateCacheEndToEnd(t *testing.T) {
	prog := reo.MustCompile(`
Buffers(in[];out[]) = prod (i:1..#in) Fifo1(in[i];out[i])
`)
	conn, err := prog.Connector("Buffers")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"in": 6, "out": 6},
		reo.WithStateCache(4), reo.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	outs := inst.Outports("in")
	ins := inst.Inports("out")
	within(t, 30*time.Second, "bounded-cache traffic", func() {
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < 30; r++ {
					outs[i].Send(r)
				}
			}(i)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < 30; r++ {
					v, err := ins[i].Recv()
					if err != nil || v != r {
						t.Errorf("lane %d: recv %v, %v; want %d", i, v, err, r)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
}
