// Pooled-instance reuse tests: a recycled instance (reo.WithReuse) must
// be observationally identical to a fresh one — same per-port value
// sequences under the deterministic gendrv schedule, same Steps and
// GuardEvals — and the steady-state Connect/Close cycle must stay
// alloc-cheap (the reason the pool exists).
package reo_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	reo "repro"
	"repro/internal/connlib"
	"repro/internal/explore"
	"repro/internal/gen/gendrv"
)

// reuseOpts is the serving configuration: shared process runtime,
// pooled recycling. The seed pins the router's choices.
func reuseOpts() []reo.ConnectOption {
	return []reo.ConnectOption{
		reo.WithSeed(7),
		reo.WithPartitioning(reo.PartitionRegions),
		reo.WithRuntime(nil),
		reo.WithReuse(true),
	}
}

// TestReuseDifferential drives the seeded LateAsyncRouter (a connector
// whose rng choices are observable in which output each value lands on)
// through a fixed schedule, recycling the instance between runs. On the
// synchronous region lane every recycled run must reproduce the fresh
// run's per-port sequences and counters exactly. On the shared runtime
// worker timing decides which region fires first, so, as the explorer
// does for choice-bearing connectors on timing-dependent lanes, that lane
// is held only to what timing cannot change: no run fails, and every value
// sent arrives on exactly one output. On both, a recycled run compiles no
// plans.
func TestReuseDifferential(t *testing.T) {
	d, err := connlib.ByName("LateAsyncRouter")
	if err != nil {
		t.Fatal(err)
	}
	const n, rounds = 3, 6
	// recycle connects with opts and drives the instance, which drive must
	// close (recycling it into the template pool), then does so again three
	// times; round -1 is the fresh instance.
	recycle := func(t *testing.T, opts []reo.ConnectOption, drive func(inst *reo.Instance, round int)) {
		t.Helper()
		var plans int64
		for round := -1; round < 3; round++ {
			inst, err := d.Connect(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			drive(inst, round)
			// The pool hands the same instance back, plans and all.
			if round >= 0 && inst.PlansCompiled() != plans {
				t.Errorf("round %d: recycled run compiled %d new plans, want 0 (plans live with the instance)", round, inst.PlansCompiled()-plans)
			}
			plans = inst.PlansCompiled()
		}
		if plans == 0 {
			t.Fatal("fresh run compiled no plans")
		}
	}
	t.Run("sync", func(t *testing.T) {
		var fresh *gendrv.Result
		opts := []reo.ConnectOption{reo.WithSeed(7), reo.WithPartitioning(reo.PartitionRegions), reo.WithReuse(true)}
		recycle(t, opts, func(inst *reo.Instance, round int) {
			res, err := gendrv.Drive(inst.Backend(), "one2many", n, rounds)
			inst.Close()
			if err != nil {
				t.Fatal(err)
			}
			if fresh == nil {
				fresh = res
				return
			}
			if !reflect.DeepEqual(fresh.Seqs, res.Seqs) {
				t.Errorf("round %d: per-port sequences differ\nfresh:    %v\nrecycled: %v\n%s",
					round, fresh.Seqs, res.Seqs, reproCmd(t, 7))
			}
			if fresh.Steps != res.Steps {
				t.Errorf("round %d: steps differ: fresh %d, recycled %d\n%s", round, fresh.Steps, res.Steps, reproCmd(t, 7))
			}
			if fresh.GuardEvals != res.GuardEvals {
				t.Errorf("round %d: guard evals differ: fresh %d, recycled %d\n%s", round, fresh.GuardEvals, res.GuardEvals, reproCmd(t, 7))
			}
		})
	})
	t.Run("runtime", func(t *testing.T) {
		recycle(t, reuseOpts(), func(inst *reo.Instance, round int) {
			vs := make([]any, n*rounds)
			for i := range vs {
				vs[i] = gendrv.Tag(0, i)
			}
			// Room for every value twice: a duplicate delivery must reach
			// the check below, not block its receiver.
			recvd := make(chan any, 2*len(vs))
			var wg sync.WaitGroup
			for _, in := range inst.Inports("out") {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						v, err := in.Recv()
						if err != nil {
							return // closed once every value arrived
						}
						recvd <- v
					}
				}()
			}
			got := make(map[any]int)
			within(t, 10*time.Second, "every value delivered", func() {
				if err := inst.Outports("in")[0].SendBatch(vs); err != nil {
					t.Errorf("round %d: send: %v", round, err)
					return
				}
				for range vs {
					got[<-recvd]++
				}
			})
			// Close only once every receiver waits in its next Recv (the
			// send, one Recv per value and one per receiver registered): a
			// Recv issued after Close would reach the recycled instance,
			// since under WithReuse no port access may follow Close.
			parked := int64(1 + len(vs) + len(inst.Inports("out")))
			within(t, 10*time.Second, "every receiver parked", func() {
				for inst.Backend().OpsRegistered() < parked {
					runtime.Gosched()
				}
			})
			inst.Close()
			wg.Wait()
			for len(recvd) > 0 {
				got[<-recvd]++
			}
			for _, v := range vs {
				if got[v] != 1 {
					t.Errorf("round %d: value %v received %d times, want once", round, v, got[v])
				}
			}
			if len(got) != len(vs) {
				t.Errorf("round %d: %d distinct values received, %d sent: %v", round, len(got), len(vs), got)
			}
		})
	})
}

// TestReuseCounterResetAndStats: a recycled instance starts with zeroed
// step counters, and the pool only serves instances of the matching
// template and options.
func TestReuseCounterReset(t *testing.T) {
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn, err := prog.Connector("Lane")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(nil, reuseOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Outport("a").Send(1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Inport("b").Recv(); err != nil {
		t.Fatal(err)
	}
	if inst.Steps() == 0 {
		t.Fatal("no steps before recycle")
	}
	inst.Close()
	re, err := conn.Connect(nil, reuseOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Steps() != 0 {
		t.Errorf("recycled Steps() = %d, want 0", re.Steps())
	}
	if re.GuardEvals() != 0 {
		t.Errorf("recycled GuardEvals() = %d, want 0", re.GuardEvals())
	}
	// The recycled instance works end to end.
	if err := re.Outport("a").Send("v"); err != nil {
		t.Fatal(err)
	}
	if v, err := re.Inport("b").Recv(); err != nil || v != "v" {
		t.Fatalf("recycled recv = %v, %v", v, err)
	}
}

// TestConnectCloseAllocs pins the steady-state serving churn: once the
// pool is warm, a full Connect → Send → Recv → Close cycle on the
// shared runtime must cost at most 2 allocations.
func TestConnectCloseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn, err := prog.Connector("Lane")
	if err != nil {
		t.Fatal(err)
	}
	opts := reuseOpts() // hoisted: option building is per-config, not per-cycle
	cycle := func() {
		inst, err := conn.Connect(nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Outport("a").Send(7); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Inport("b").Recv(); err != nil {
			t.Fatal(err)
		}
		inst.Close()
	}
	cycle() // warm the pool
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 2 {
		t.Errorf("Connect/Close cycle allocates %.1f times, want <= 2", allocs)
	}
}

// TestManyInstancesFireAllocs pins the steady-state fire path with many
// live instances multiplexed on the shared runtime at zero allocations
// per op.
func TestManyInstancesFireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn, err := prog.Connector("Lane")
	if err != nil {
		t.Fatal(err)
	}
	const live = 64
	type lane struct {
		out reo.Outport
		in  reo.Inport
	}
	lanes := make([]lane, live)
	for i := range lanes {
		inst, err := conn.Connect(nil,
			reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		lanes[i] = lane{out: inst.Outport("a"), in: inst.Inport("b")}
		// Warm the instance's composite states and op pool: a state is
		// kept on its second visit, so it takes two rounds.
		for j := 0; j < 2; j++ {
			if err := lanes[i].out.Send(0); err != nil {
				t.Fatal(err)
			}
			if _, err := lanes[i].in.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := 0
	fire := func() {
		l := lanes[next%live]
		next++
		if err := l.out.Send(7); err != nil {
			t.Fatal(err)
		}
		if _, err := l.in.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, fire); allocs != 0 {
		t.Errorf("steady-state fire allocates %.2f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { reo.DefaultRuntime().Stats() }); allocs != 0 {
		t.Errorf("Runtime.Stats allocates %.2f times, want 0", allocs)
	}
}

// TestChurnAllocGrowth is the nightly leak gate: many thousands of
// Connect → fire → Close cycles on the shared runtime with pooled
// reuse must not grow the live heap — the pool recycles, it does not
// accumulate. Gated on NIGHTLY_CHURN_CYCLES because a meaningful cycle
// count is too slow for the PR gate; per-cycle alloc counts are pinned
// there by TestConnectCloseAllocs instead. Run without -race: the
// detector's shadow memory inflates heap accounting.
func TestChurnAllocGrowth(t *testing.T) {
	cycles, _ := strconv.Atoi(os.Getenv("NIGHTLY_CHURN_CYCLES"))
	if cycles <= 0 {
		t.Skip("set NIGHTLY_CHURN_CYCLES to run the churn leak gate (nightly CI)")
	}
	if raceEnabled {
		t.Skip("heap accounting is distorted under the race detector")
	}
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn, err := prog.Connector("Lane")
	if err != nil {
		t.Fatal(err)
	}
	opts := reuseOpts()
	cycle := func(i int) {
		inst, err := conn.Connect(nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Outport("a").Send(i); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Inport("b").Recv(); err != nil {
			t.Fatal(err)
		}
		inst.Close()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 100; i++ { // warm the pool and the runtime's steady state
		cycle(i)
	}
	before := heap()
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	after := heap()
	const limit = 4 << 20
	if after > before && after-before > limit {
		t.Errorf("live heap grew %d bytes over %d Connect/Close cycles (limit %d): the reuse pool is leaking",
			after-before, cycles, limit)
	}
	t.Logf("churn: %d cycles, heap %d -> %d bytes", cycles, before, after)
}

// TestReuseExploreSchedules extends the recycling contract to the
// adversarial corpus: for explorer-generated connectors driven over
// explorer-generated schedules (through the public API — Compile,
// Connect, Instance.Backend), a recycled instance must replay the fresh
// instance's run schedule-for-schedule: identical per-port sequences,
// Steps, GuardEvals, deadlock state, and error class. The cooperative
// engine (no runtime, no workers) keeps every run synchronous, so the
// comparison is strict even for choice-rich connectors — Close resets
// the choice stream to the seed.
func TestReuseExploreSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer corpus run")
	}
	funcs := reo.Funcs{Filters: gendrv.TestFilters(), Transformers: gendrv.TestXforms()}
	const baseSeed = 2026
	for i := 0; i < 8; i++ {
		seed := explore.RoundSeed(baseSeed, i)
		bc, err := explore.BuildConn(seed, explore.GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := reo.Compile(bc.Conn.Source(), reo.WithFuncs(funcs))
		if err != nil {
			t.Fatalf("seed %d: public compile rejected explorer connector: %v\n%s", seed, err, bc.Conn.Source())
		}
		conn, err := prog.Connector(bc.Conn.Name())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sched := explore.GenerateSchedule(explore.RoundSeed(seed, 1), bc.Ins(), bc.Outs(), 16)
		run := func() *explore.Outcome {
			t.Helper()
			inst, err := conn.Connect(bc.Conn.Lengths(),
				reo.WithSeed(5),
				reo.WithPartitioning(reo.PartitionRegions),
				reo.WithReuse(true))
			if err != nil {
				t.Fatalf("seed %d: connect: %v", seed, err)
			}
			out, err := explore.RunSchedule(inst.Backend(), sched, explore.RunCfg{CloseFn: inst.Close})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return out
		}
		fresh := run()
		for round := 0; round < 2; round++ {
			recycled := run()
			if d := explore.DiffOutcomes(fresh, recycled, "fresh", "recycled", false, false); d != "" {
				t.Errorf("seed %d round %d: recycled run diverged: %s\nconnector:\n%s\nrepro: go test -run '%s' .",
					seed, round, d, bc.Conn.Source(), t.Name())
			}
		}
	}
}

// TestReuseChurnOnBusyRuntime recycles a deterministic connector on a
// shared 2-worker runtime while a sibling instance streams on the same
// workers. Close leaves the recycled regions behind as stale hints in the
// workers' private run lists and in the injection queue; they must be
// dropped, never run, so every recycled run repeats the fresh one: the same
// values in the same order, the same Steps and GuardEvals. The Sync stage
// is the one region that dispatches (the chain's ends are endpoints and
// the nodes between buffers splice), so the plans it compiles witness
// that a run was recycled. It is the consuming end: every fire there
// completes the scalar Recv it serves, so no fire fuses a burst, whose
// length (and so the guard evaluations) would depend on timing.
func TestReuseChurnOnBusyRuntime(t *testing.T) {
	const src = `Chain(a;b) =
    prod (i:1..1) Fifo1(a;m1)
    mult prod (i:1..1) Fifo1(m1;m2)
    mult prod (i:1..1) Fifo1(m2;m3)
    mult prod (i:1..1) Fifo1(m3;s)
    mult prod (i:1..1) Sync(s;b)
`
	conn, err := reo.MustCompile(src).Connector("Chain")
	if err != nil {
		t.Fatal(err)
	}
	rt := reo.NewRuntime(2)
	defer rt.Close()
	onRT := []reo.ConnectOption{reo.WithSeed(7), reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(rt)}

	sibling, err := conn.Connect(nil, onRT...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for out := sibling.Outport("a"); out.Send(0) == nil; {
		}
	}()
	go func() {
		defer wg.Done()
		for in := sibling.Inport("b"); ; {
			if _, err := in.Recv(); err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer sibling.Close()

	type result struct {
		seq               []any
		steps, guardEvals int64
	}
	const items = 64
	// Of the last run: its expansions, and the instance's compiled plans
	// (never reset, so a recycled run must not add to them). A state is
	// kept on its second visit, so the first recycled run may still expand
	// what the fresh run visited only once; from the second on, every
	// state was visited at least twice before and nothing expands.
	var expansions, plans int64
	run := func() result {
		t.Helper()
		inst, err := conn.Connect(nil, append(onRT, reo.WithReuse(true))...)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close() // recycles into the template pool
		sent := make(chan error, 1)
		go func() {
			out := inst.Outport("a")
			for i := 0; i < items; i++ {
				if err := out.Send(i); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		var r result
		for in := inst.Inport("b"); len(r.seq) < items; {
			v, err := in.Recv()
			if err != nil {
				t.Fatal(err)
			}
			r.seq = append(r.seq, v)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		// A region counts a step after publishing the items it moved to
		// its links, still holding its lock, so a later region can finish
		// the Recv first. SetTracer takes every region's lock once, so no
		// step is left uncounted when Steps is read.
		inst.SetTracer(nil)
		r.steps, r.guardEvals = inst.Steps(), inst.GuardEvals()
		expansions, plans = inst.Expansions(), inst.PlansCompiled()
		return r
	}
	fresh := run()
	if want := int64(items * 5); fresh.steps != want {
		t.Fatalf("fresh run took %d steps, want %d", fresh.steps, want)
	}
	if plans == 0 {
		t.Fatal("fresh run compiled no plans")
	}
	for round := 0; round < 50; round++ {
		before := plans
		if recycled := run(); !reflect.DeepEqual(fresh, recycled) {
			t.Fatalf("round %d: recycled run differs from the fresh one\nfresh:    %+v\nrecycled: %+v", round, fresh, recycled)
		}
		if plans != before {
			t.Fatalf("round %d: %d plans compiled, want 0: the instance was not recycled", round, plans-before)
		}
		if round >= 1 && expansions != 0 {
			t.Fatalf("round %d: %d expansions, want 0: the instance was not recycled", round, expansions)
		}
	}
}

// TestSharedRuntimeReuseScalarClose streams scalar items through recycled
// instances of an 8-stage chain on a shared runtime and closes each
// instance the moment its last item arrives. That item reached the
// receiver inside the sender's last Send, which may still be walking
// regions its fires woke: Close must wait for those passes before the
// instance is reset and recycled, so every next run on the recycled
// instance delivers its own items, in order, and nothing else.
func TestSharedRuntimeReuseScalarClose(t *testing.T) {
	var src strings.Builder
	src.WriteString("Chain(a;b) =\n    prod (i:1..1) Fifo1(a;m1)\n")
	for i := 1; i < 7; i++ {
		fmt.Fprintf(&src, "    mult prod (i:1..1) Fifo1(m%d;m%d)\n", i, i+1)
	}
	src.WriteString("    mult prod (i:1..1) Fifo1(m7;b)\n")
	conn, err := reo.MustCompile(src.String()).Connector("Chain")
	if err != nil {
		t.Fatal(err)
	}
	rt := reo.NewRuntime(2)
	defer rt.Close()
	opts := []reo.ConnectOption{reo.WithSeed(7), reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(rt), reo.WithReuse(true)}
	for round := 0; round < 40; round++ {
		inst, err := conn.Connect(nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		items := 16 + round
		sent := make(chan error, 1)
		go func() {
			out := inst.Outport("a")
			for i := 0; i < items; i++ {
				if err := out.Send(round*1000 + i); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		in := inst.Inport("b")
		for i := 0; i < items; i++ {
			if v, err := in.Recv(); err != nil || v != round*1000+i {
				t.Fatalf("round %d: recv %d = %v, %v", round, i, v, err)
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- inst.Close() }()
		if err := <-sent; err != nil {
			t.Fatalf("round %d: send: %v", round, err)
		}
		if err := <-closed; err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
	if st := rt.Stats(); st.Caller == 0 {
		t.Errorf("no pass ran on a task's goroutine: %+v", st)
	}
}
