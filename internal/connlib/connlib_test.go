package connlib_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	reo "repro"
	"repro/internal/connlib"
	"repro/internal/engine"
)

// progressSteps is the step count a driven connector must reach. Every
// connector reaches it in milliseconds, also at N = 40 under the race
// detector; hangGuard only bounds a run that stopped firing.
const (
	progressSteps = 1000
	hangGuard     = 30 * time.Second
)

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

func connect(t *testing.T, name string, n int, opts ...reo.ConnectOption) *reo.Instance {
	t.Helper()
	d, err := connlib.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Connect(n, opts...)
	if err != nil {
		t.Fatalf("connect %s N=%d: %v", name, n, err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

// driveToProgress connects d at n and drives it in batches of batch
// until it has fired progressSteps global steps, failing with the count
// reached if that takes longer than hangGuard; then it closes the
// instance and waits for the driver's tasks.
func driveToProgress(t *testing.T, d connlib.Def, n, batch int, opts ...reo.ConnectOption) {
	t.Helper()
	inst, err := d.Connect(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wait := connlib.DriveBatched(d, inst, n, batch)
	defer wait()
	defer inst.Close()
	deadline := time.Now().Add(hangGuard)
	for inst.Steps() < progressSteps {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d global steps within %v", inst.Steps(), progressSteps, hangGuard)
		}
		runtime.Gosched()
	}
}

// inFlight counts a test's port operations that have started and not yet
// returned, for the idle barrier.
type inFlight struct{ n atomic.Int64 }

// goOp runs op on a goroutine of its own, counted until it returns.
func (f *inFlight) goOp(op func()) {
	f.n.Add(1)
	go func() {
		defer f.n.Add(-1)
		op()
	}()
}

// idle returns once every counted operation is parked on inst and no pass
// is running or due (engine.AwaitIdle): from then on nothing fires until
// a task acts, so a counted operation that has not returned is one the
// protocol blocks.
func (f *inFlight) idle(t *testing.T, inst *reo.Instance) {
	t.Helper()
	if err := engine.AwaitIdle(inst.Backend(), f.n.Load, hangGuard); err != nil {
		t.Fatal(err)
	}
}

// TestAllCompileAndConnect smoke-tests every benchmark connector at
// several N in JIT mode, and at small N in all modes.
func TestAllCompileAndConnect(t *testing.T) {
	for _, d := range connlib.All() {
		t.Run(d.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 5} {
				inst, err := d.Connect(n)
				if err != nil {
					t.Fatalf("N=%d: %v", n, err)
				}
				inst.Close()
			}
			for _, mode := range []reo.Mode{reo.AOT, reo.Static} {
				inst, err := d.Connect(3, reo.WithMode(mode))
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				inst.Close()
			}
		})
	}
}

// TestAllDriversMakeProgress runs the benchmark driver on every
// connector until it has fired progressSteps global steps — the liveness
// property underlying Fig. 12's metric.
func TestAllDriversMakeProgress(t *testing.T) {
	for _, d := range connlib.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			driveToProgress(t, d, 4, 1, reo.WithSeed(11))
		})
	}
}

// TestBatchedDriversMakeProgress runs the batched benchmark driver on
// every connector: the plain sender/receiver tasks move items in batches
// of 8, which must keep every protocol live (a pending batch behaves
// like a task that re-registers instantly) and keep steps accumulating.
func TestBatchedDriversMakeProgress(t *testing.T) {
	for _, d := range connlib.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			driveToProgress(t, d, 4, 8, reo.WithSeed(11))
		})
	}
}

// TestLargeNAcrossWordBoundary is a regression test for bit-set padding:
// instances whose universes grow past 64/128 ports while automata are
// being stamped out must still compose (EarlyAsyncMerger at N=40 crosses
// the word boundary between the fifo constituents and the node merger).
func TestLargeNAcrossWordBoundary(t *testing.T) {
	for _, name := range []string{"EarlyAsyncMerger", "OrderedMany2One", "Barrier"} {
		t.Run(name, func(t *testing.T) {
			d, err := connlib.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			driveToProgress(t, d, 40, 1, reo.WithSeed(1))
		})
	}
}

// TestStepsIn: the Fig. 12 window counts the steps a driven connector
// fires in it, and a connector that does not connect reports the Connect
// error instead of a count.
func TestStepsIn(t *testing.T) {
	d, err := connlib.ByName("Merger")
	if err != nil {
		t.Fatal(err)
	}
	if steps, err := connlib.StepsIn(d, 3, 100*time.Millisecond); err != nil || steps == 0 {
		t.Fatalf("StepsIn = %d, %v; want steps", steps, err)
	}
	d, err = connlib.ByName("EarlyAsyncMerger")
	if err != nil {
		t.Fatal(err)
	}
	// 2^24 states cannot fit in 1024.
	_, err = connlib.StepsIn(d, 24, time.Millisecond, reo.WithMode(reo.Static), reo.WithMaxStates(1024))
	if !errors.Is(err, reo.ErrTooLarge) {
		t.Fatalf("StepsIn on a too-large static product: err = %v, want ErrTooLarge", err)
	}
}

func TestMergerDeliversAllDistinct(t *testing.T) {
	inst := connect(t, "Merger", 5, reo.WithSeed(2))
	outs := inst.Outports("in")
	within(t, 10*time.Second, "merger", func() {
		var wg sync.WaitGroup
		for i, o := range outs {
			wg.Add(1)
			go func(i int, o reo.Outport) { defer wg.Done(); o.Send(i) }(i, o)
		}
		seen := map[any]bool{}
		for range outs {
			v, err := inst.Inport("out").Recv()
			if err != nil {
				t.Fatal(err)
			}
			if seen[v] {
				t.Errorf("duplicate %v", v)
			}
			seen[v] = true
		}
		wg.Wait()
	})
}

func TestReplicatorBroadcasts(t *testing.T) {
	inst := connect(t, "Replicator", 4)
	within(t, 10*time.Second, "replicate", func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); inst.Outport("in").Send("x") }()
		for _, in := range inst.Inports("out") {
			wg.Add(1)
			go func(in reo.Inport) {
				defer wg.Done()
				if v, err := in.Recv(); err != nil || v != "x" {
					t.Errorf("recv = %v, %v", v, err)
				}
			}(in)
		}
		wg.Wait()
	})
}

func TestRouterExclusiveDelivery(t *testing.T) {
	inst := connect(t, "Router", 3, reo.WithSeed(5))
	ins := inst.Inports("out")
	const total = 30
	var delivered atomic.Int64
	all := make(chan struct{})
	within(t, 20*time.Second, "route", func() {
		var wg sync.WaitGroup
		for _, in := range ins {
			wg.Add(1)
			go func(in reo.Inport) {
				defer wg.Done()
				for {
					if _, err := in.Recv(); err != nil {
						return
					}
					if delivered.Add(1) == total {
						close(all)
					}
				}
			}(in)
		}
		for i := 0; i < total; i++ {
			if err := inst.Outport("in").Send(i); err != nil {
				t.Fatal(err)
			}
		}
		<-all
		inst.Close()
		wg.Wait()
	})
	if delivered.Load() != total {
		t.Errorf("delivered = %d, want %d (exclusive routing)", delivered.Load(), total)
	}
}

func TestEarlyAsyncMergerBuffers(t *testing.T) {
	inst := connect(t, "EarlyAsyncMerger", 3, reo.WithSeed(7))
	outs := inst.Outports("in")
	within(t, 10*time.Second, "buffered sends", func() {
		// All sends complete with no receiver: one buffer per sender.
		for i, o := range outs {
			if err := o.Send(i * 100); err != nil {
				t.Fatal(err)
			}
		}
	})
	within(t, 10*time.Second, "drain", func() {
		sum := 0
		for range outs {
			v, err := inst.Inport("out").Recv()
			if err != nil {
				t.Fatal(err)
			}
			sum += v.(int)
		}
		if sum != 300 {
			t.Errorf("sum = %d, want 300", sum)
		}
	})
}

func TestLateAsyncMergerSingleBuffer(t *testing.T) {
	inst := connect(t, "LateAsyncMerger", 3)
	outs := inst.Outports("in")
	within(t, 5*time.Second, "first buffered send", func() {
		if err := outs[0].Send("a"); err != nil {
			t.Fatal(err)
		}
	})
	// Second send must block: the single shared fifo slot is taken.
	var ops inFlight
	second := make(chan struct{})
	ops.goOp(func() { outs[1].Send("b"); close(second) })
	ops.idle(t, inst)
	select {
	case <-second:
		t.Fatal("second send completed with full shared buffer")
	default:
	}
	within(t, 5*time.Second, "drain frees buffer", func() {
		if v, err := inst.Inport("out").Recv(); err != nil || v != "a" {
			t.Fatalf("recv = %v, %v", v, err)
		}
		<-second
	})
}

func TestBarrierLockstep(t *testing.T) {
	const n = 4
	inst := connect(t, "Barrier", n)
	outs := inst.Outports("a")
	ins := inst.Inports("b")

	var ops inFlight
	recvDone := make(chan int, n)
	for i, in := range ins {
		ops.goOp(func() {
			if _, err := in.Recv(); err == nil {
				recvDone <- i
			}
		})
	}
	// n-1 senders: nothing may complete.
	for i := 0; i < n-1; i++ {
		ops.goOp(func() { outs[i].Send(i) })
	}
	ops.idle(t, inst)
	select {
	case i := <-recvDone:
		t.Fatalf("receiver %d completed before all senders arrived", i)
	default:
	}
	within(t, 10*time.Second, "barrier releases", func() {
		go outs[n-1].Send(n - 1)
		for i := 0; i < n; i++ {
			<-recvDone
		}
	})
}

func TestAlternatorRoundRobin(t *testing.T) {
	const n = 3
	inst := connect(t, "Alternator", n, reo.WithSeed(13))
	outs := inst.Outports("in")
	within(t, 20*time.Second, "alternation", func() {
		var wg sync.WaitGroup
		for i, o := range outs {
			wg.Add(1)
			go func(i int, o reo.Outport) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					if err := o.Send(fmt.Sprintf("%d/%d", i, r)); err != nil {
						return
					}
				}
			}(i, o)
		}
		for r := 0; r < 4; r++ {
			for i := 0; i < n; i++ {
				v, err := inst.Inport("out").Recv()
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("%d/%d", i, r)
				if v != want {
					t.Fatalf("round %d pos %d: got %v, want %s", r, i, v, want)
				}
			}
		}
		wg.Wait()
	})
}

func TestSequencerOrdersClients(t *testing.T) {
	const n = 3
	inst := connect(t, "Sequencer", n)
	outs := inst.Outports("c")

	// Client 2 tries first; it must stay blocked until client 1 went.
	var ops inFlight
	second := make(chan struct{})
	ops.goOp(func() { outs[1].Send(0); close(second) })
	ops.idle(t, inst)
	select {
	case <-second:
		t.Fatal("client 2 completed before client 1")
	default:
	}
	within(t, 10*time.Second, "sequence 1,2,3", func() {
		if err := outs[0].Send(0); err != nil {
			t.Fatal(err)
		}
		<-second
		if err := outs[2].Send(0); err != nil {
			t.Fatal(err)
		}
		// And around again.
		if err := outs[0].Send(1); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLockMutualExclusion(t *testing.T) {
	const n = 4
	inst := connect(t, "Lock", n, reo.WithSeed(3))
	acq := inst.Outports("acq")
	rel := inst.Outports("rel")

	var inCrit atomic.Int32
	var maxSeen atomic.Int32
	within(t, 30*time.Second, "lock clients", func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					if err := acq[i].Send(r); err != nil {
						return
					}
					c := inCrit.Add(1)
					for {
						m := maxSeen.Load()
						if c <= m || maxSeen.CompareAndSwap(m, c) {
							break
						}
					}
					inCrit.Add(-1)
					if err := rel[i].Send(r); err != nil {
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
	if maxSeen.Load() > 1 {
		t.Errorf("mutual exclusion violated: %d clients in critical section", maxSeen.Load())
	}
}

func TestExchangerRingShift(t *testing.T) {
	const n = 3
	inst := connect(t, "Exchanger", n)
	outs := inst.Outports("a")
	ins := inst.Inports("b")
	within(t, 10*time.Second, "exchange", func() {
		var wg sync.WaitGroup
		got := make([]any, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); outs[i].Send(i + 1) }(i)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := ins[i].Recv()
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				got[i] = v
			}(i)
		}
		wg.Wait()
		// a[i] -> b[i%n+1]: b[2]=a[1]=1, b[3]=a[2]=2, b[1]=a[3]=3.
		want := []any{3, 1, 2}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("b[%d] = %v, want %v", i+1, got[i], want[i])
			}
		}
	})
}

func TestValveGates(t *testing.T) {
	inst := connect(t, "Valve", 2)
	outs := inst.Outports("a")
	ins := inst.Inports("b")
	ctl := inst.Outport("ctl")

	within(t, 10*time.Second, "open flow", func() {
		go outs[0].Send("v")
		if v, err := ins[0].Recv(); err != nil || v != "v" {
			t.Fatalf("open valve: %v, %v", v, err)
		}
	})
	within(t, 5*time.Second, "close", func() { ctl.Send(0) })
	var ops inFlight
	blocked := make(chan struct{})
	ops.goOp(func() { outs[1].Send("w"); close(blocked) })
	recvd := make(chan struct{})
	ops.goOp(func() { ins[1].Recv(); close(recvd) })
	ops.idle(t, inst)
	select {
	case <-recvd:
		t.Fatal("closed valve let data through")
	default:
	}
	within(t, 10*time.Second, "reopen", func() {
		ctl.Send(1)
		<-blocked
		<-recvd
	})
}

func TestDiscriminatorOnePerRound(t *testing.T) {
	const n = 3
	inst := connect(t, "Discriminator", n)
	outs := inst.Outports("in")

	// The monitor counts as in flight from its first receive to its
	// last, so the barrier below also waits for its next receive to park.
	var ops inFlight
	got := make(chan any, 4)
	ops.goOp(func() {
		for {
			v, err := inst.Inport("out").Recv()
			if err != nil {
				return
			}
			got <- v
		}
	})
	within(t, 10*time.Second, "full round", func() {
		for i, o := range outs {
			if err := o.Send(fmt.Sprintf("p%d", i+1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	within(t, 10*time.Second, "one output", func() {
		v := <-got
		if v != fmt.Sprintf("p%d", n) {
			t.Errorf("round output = %v, want p%d", v, n)
		}
	})
	ops.idle(t, inst)
	select {
	case v := <-got:
		t.Fatalf("extra output %v without a second round", v)
	default:
	}
}

func TestTokenRingOrder(t *testing.T) {
	const n = 3
	inst := connect(t, "TokenRing", n)
	ins := inst.Inports("c")

	// Client 2 alone must block: the token starts at position 1.
	var ops inFlight
	second := make(chan struct{})
	ops.goOp(func() { ins[1].Recv(); close(second) })
	ops.idle(t, inst)
	select {
	case <-second:
		t.Fatal("client 2 got the token first")
	default:
	}
	within(t, 10*time.Second, "token circulates", func() {
		if _, err := ins[0].Recv(); err != nil {
			t.Fatal(err)
		}
		<-second
		if _, err := ins[2].Recv(); err != nil {
			t.Fatal(err)
		}
		// Full circle.
		if _, err := ins[0].Recv(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAsyncRoutersDeliver(t *testing.T) {
	for _, name := range []string{"EarlyAsyncRouter", "LateAsyncRouter"} {
		t.Run(name, func(t *testing.T) {
			inst := connect(t, name, 3, reo.WithSeed(17))
			// Exactly one receiver can get the value; all try.
			var ops inFlight
			got := make(chan any, 3)
			within(t, 10*time.Second, "buffered route", func() {
				if err := inst.Outport("in").Send(42); err != nil {
					t.Fatal(err)
				}
				for _, in := range inst.Inports("out") {
					ops.goOp(func() {
						if v, err := in.Recv(); err == nil {
							got <- v
						}
					})
				}
				if v := <-got; v != 42 {
					t.Errorf("routed value = %v", v)
				}
			})
			ops.idle(t, inst)
			select {
			case v := <-got:
				t.Errorf("value %v delivered twice", v)
			default:
			}
		})
	}
}

func TestAsyncReplicatorsDeliver(t *testing.T) {
	for _, name := range []string{"EarlyAsyncReplicator", "LateAsyncReplicator"} {
		t.Run(name, func(t *testing.T) {
			inst := connect(t, name, 3)
			within(t, 10*time.Second, "buffered broadcast", func() {
				if err := inst.Outport("in").Send("bc"); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for _, in := range inst.Inports("out") {
					wg.Add(1)
					go func(in reo.Inport) {
						defer wg.Done()
						if v, err := in.Recv(); err != nil || v != "bc" {
							t.Errorf("recv = %v, %v", v, err)
						}
					}(in)
				}
				wg.Wait()
			})
		})
	}
}

// TestOrderedMany2OneAllN exercises the paper's running connector across
// modes via connlib.
func TestOrderedMany2OneAllN(t *testing.T) {
	d, err := connlib.ByName("OrderedMany2One")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		for _, mode := range []reo.Mode{reo.JIT, reo.Static} {
			t.Run(fmt.Sprintf("N=%d/%v", n, mode), func(t *testing.T) {
				inst, err := d.Connect(n, reo.WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				defer inst.Close()
				outs := inst.Outports("a")
				ins := inst.Inports("b")
				within(t, 20*time.Second, "ordered rounds", func() {
					var wg sync.WaitGroup
					for i, o := range outs {
						wg.Add(1)
						go func(i int, o reo.Outport) {
							defer wg.Done()
							for r := 0; r < 3; r++ {
								o.Send(fmt.Sprintf("%d/%d", i, r))
							}
						}(i, o)
					}
					for r := 0; r < 3; r++ {
						for i := 0; i < n; i++ {
							v, err := ins[i].Recv()
							if err != nil {
								t.Fatal(err)
							}
							if want := fmt.Sprintf("%d/%d", i, r); v != want {
								t.Fatalf("got %v, want %s", v, want)
							}
						}
					}
					wg.Wait()
				})
			})
		}
	}
}
