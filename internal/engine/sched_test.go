package engine_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

// waitForErr waits for one error on ch, failing the test after timeout
// (the stubEntityTicker.waitForCalls pattern: signal channel + deadline,
// no sleeping in a loop).
func waitForErr(t *testing.T, ch <-chan error, timeout time.Duration, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(timeout):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// TestWorkersChainEndToEnd runs the cut chain on a 2-worker scheduler:
// values must arrive in order, and the pool size must be reported.
func TestWorkersChainEndToEnd(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{Workers: 2})
	defer m.Close()
	if m.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", m.Workers())
	}
	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := m.Send(a, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		v, err := m.Recv(b)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("recv %d = %v", i, v)
		}
	}
	if err := waitForErr(t, done, 5*time.Second, "sender"); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersPoolCaps checks the worker-count normalization: negative
// selects GOMAXPROCS, and the pool never exceeds the region count.
func TestWorkersPoolCaps(t *testing.T) {
	m, _, _ := regionChain(t, engine.Options{Workers: -1})
	defer m.Close()
	want := runtime.GOMAXPROCS(0)
	if want > m.Partitions() {
		want = m.Partitions()
	}
	if m.Workers() != want {
		t.Errorf("Workers() = %d, want %d (GOMAXPROCS capped at regions)", m.Workers(), want)
	}
	m2, _, _ := regionChain(t, engine.Options{Workers: 64})
	defer m2.Close()
	if m2.Workers() != m2.Partitions() {
		t.Errorf("Workers() = %d, want %d (capped at regions)", m2.Workers(), m2.Partitions())
	}
}

// TestWorkersInitiallyFullLink: the workers' initial wake must settle
// seeded links, so the seed value is deliverable with no send.
func TestWorkersInitiallyFullLink(t *testing.T) {
	u := ca.NewUniverse()
	a, x, y, b := u.Port("a"), u.Port("x"), u.Port("y"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	auts := []*ca.Automaton{prim.Sync(u, a, x), prim.Fifo1Full(u, x, y, "seed"), prim.Sync(u, y, b)}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Recv(b)
	if err != nil || v != "seed" {
		t.Fatalf("recv = %v, %v; want seed", v, err)
	}
	go m.Send(a, 7)
	if v, err = m.Recv(b); err != nil || v != 7 {
		t.Fatalf("recv = %v, %v; want 7", v, err)
	}
}

// TestWorkersCloseDuringParkedRecv: Close must fail a Recv parked on
// its wait slot while the scheduler is live, and shut the pool down.
func TestWorkersCloseDuringParkedRecv(t *testing.T) {
	m, _, b := regionChain(t, engine.Options{Workers: 2})
	parked := make(chan error, 1)
	go func() {
		_, err := m.Recv(b)
		parked <- err
	}()
	// Nothing is ever sent, so once registered the recv is parked.
	engine.WaitParked(t, m, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := waitForErr(t, parked, 2*time.Second, "parked recv"); err != engine.ErrClosed {
		t.Errorf("parked recv error = %v, want ErrClosed", err)
	}
	// Close is idempotent with the scheduler shut down.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersGroupErrorMidNudge: a closed cycle of links with no task
// on it livelocks; the per-worker τ budget must break the spinning
// region's group, failing operations parked in *sibling* regions with
// ErrLivelock (group error propagation through the scheduler).
func TestWorkersGroupErrorMidNudge(t *testing.T) {
	u := ca.NewUniverse()
	x, y := u.Port("x"), u.Port("y")
	a, b := u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	auts := []*ca.Automaton{
		prim.Fifo1Full(u, x, y, prim.Token{}), // token cycle: pure relay,
		prim.Fifo1(u, y, x),                   // spins forever
		prim.Fifo1(u, a, b),                   // innocent sibling region
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{Workers: 2, MaxTauBurst: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	recvErr := make(chan error, 1)
	go func() {
		// Parked (or immediately failed, if the budget fired first) —
		// either way the livelock must surface here.
		_, err := m.Recv(b)
		recvErr <- err
	}()
	if err := waitForErr(t, recvErr, 10*time.Second, "livelock propagation"); !errors.Is(err, engine.ErrLivelock) {
		t.Errorf("sibling recv error = %v, want ErrLivelock", err)
	}
}

// TestWorkersAssignmentReported: region-partitioned Infos must report a
// home worker in worker mode and -1 in synchronous mode.
func TestWorkersAssignmentReported(t *testing.T) {
	m, _, _ := regionChain(t, engine.Options{Workers: 2})
	defer m.Close()
	seen := map[int]bool{}
	for i, in := range m.Infos() {
		if in.Worker < 0 || in.Worker >= m.Workers() {
			t.Errorf("region %d: worker %d out of range [0,%d)", i, in.Worker, m.Workers())
		}
		seen[in.Worker] = true
	}
	// Round-robin assignment over 2 regions and 2 workers covers both.
	if len(seen) != 2 {
		t.Errorf("home workers %v, want both of the pool used", seen)
	}
	ms, _, _ := regionChain(t, engine.Options{})
	defer ms.Close()
	for i, in := range ms.Infos() {
		if in.Worker != -1 {
			t.Errorf("synchronous region %d: worker = %d, want -1", i, in.Worker)
		}
	}
	if ms.Workers() != 0 {
		t.Errorf("synchronous Workers() = %d, want 0", ms.Workers())
	}
}

// TestWorkersSchedulerDrainRace hammers a multi-region relay pipeline
// from concurrent tasks and closes it mid-flight; under -race this
// exercises the lock-free links, the CAS run states, and scheduler
// shutdown against in-flight fire passes.
func TestWorkersSchedulerDrainRace(t *testing.T) {
	const lanes = 4
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	var as, bs []ca.PortID
	for i := 0; i < lanes; i++ {
		a := u.Port(fmt.Sprintf("a%d", i))
		mid := u.Port(fmt.Sprintf("m%d", i))
		b := u.Port(fmt.Sprintf("b%d", i))
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		as, bs = append(as, a), append(bs, b)
		// Two buffers per lane: the middle vertex becomes a pure relay
		// region, so every value crosses two links and a scheduled hop.
		auts = append(auts, prim.Fifo1(u, a, mid), prim.Fifo1(u, mid, b))
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if err := m.Send(as[i], k); err != nil {
					errs <- err
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			last := -1
			for {
				v, err := m.Recv(bs[i])
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != last+1 {
					t.Errorf("lane %d: got %v after %d", i, v, last)
					errs <- nil
					return
				}
				last = v.(int)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	m.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && err != engine.ErrClosed {
			t.Errorf("task error = %v, want ErrClosed", err)
		}
	}
	if m.Steps() == 0 {
		t.Error("no steps fired before Close")
	}
}

// --- shared-runtime tests ---------------------------------------------
// The tests below run coordinators on an explicit shared Runtime (the
// engine.Options.Runtime path Connect's WithRuntime uses), where Close
// detaches the instance instead of tearing the pool down.

// TestSharedRuntimeTwoInstances interleaves traffic over two
// coordinators multiplexed on one 2-worker runtime, then closes one and
// checks the other is unaffected.
func TestSharedRuntimeTwoInstances(t *testing.T) {
	rt := engine.NewRuntime(2)
	defer rt.Close()
	m1, a1, b1 := regionChain(t, engine.Options{Runtime: rt})
	m2, a2, b2 := regionChain(t, engine.Options{Runtime: rt})
	defer m2.Close()
	if m1.Workers() != 2 || m2.Workers() != 2 {
		t.Fatalf("Workers() = %d/%d, want 2/2", m1.Workers(), m2.Workers())
	}
	if got := rt.Attached(); got != 4 {
		t.Fatalf("Attached() = %d, want 4 (2 regions x 2 instances)", got)
	}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if err := m1.Send(a1, i); err != nil {
			t.Fatal(err)
		}
		if err := m2.Send(a2, -i); err != nil {
			t.Fatal(err)
		}
		if v, err := m2.Recv(b2); err != nil || v != -i {
			t.Fatalf("m2 recv %d = %v, %v", i, v, err)
		}
		if v, err := m1.Recv(b1); err != nil || v != i {
			t.Fatalf("m1 recv %d = %v, %v", i, v, err)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Attached(); got != 2 {
		t.Errorf("Attached() after close = %d, want 2", got)
	}
	// The survivor keeps flowing on the still-running pool.
	if err := m2.Send(a2, "after"); err != nil {
		t.Fatal(err)
	}
	if v, err := m2.Recv(b2); err != nil || v != "after" {
		t.Fatalf("m2 recv after close = %v, %v", v, err)
	}
}

// TestSharedRuntimeDoubleClose: Close must be idempotent on a shared
// runtime — the second call must not detach (or disturb) anything.
func TestSharedRuntimeDoubleClose(t *testing.T) {
	rt := engine.NewRuntime(1)
	defer rt.Close()
	m, a, b := regionChain(t, engine.Options{Runtime: rt})
	m2, a2, b2 := regionChain(t, engine.Options{Runtime: rt})
	defer m2.Close()
	go m.Send(a, 1)
	if v, err := m.Recv(b); err != nil || v != 1 {
		t.Fatalf("recv = %v, %v", v, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(a, 2); err != engine.ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	go m2.Send(a2, 3)
	if v, err := m2.Recv(b2); err != nil || v != 3 {
		t.Fatalf("sibling recv after double close = %v, %v", v, err)
	}
}

// TestSharedRuntimeConcurrentClose races many Close calls against each
// other and against parked operations: every call must return only
// after the coordinator is fully closed, and the parked ops must fail
// with ErrClosed.
func TestSharedRuntimeConcurrentClose(t *testing.T) {
	rt := engine.NewRuntime(2)
	defer rt.Close()
	for round := 0; round < 20; round++ {
		m, a, b := regionChain(t, engine.Options{Runtime: rt})
		parked := make(chan error, 2)
		go func() {
			_, err := m.Recv(b)
			parked <- err
		}()
		go func() {
			// Fill the buffer, then park a second send on the full lane.
			if err := m.Send(a, 0); err != nil {
				parked <- err
				return
			}
			parked <- m.Send(a, 1)
		}()
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Close(); err != nil {
					t.Errorf("concurrent close = %v", err)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 2; i++ {
			err := waitForErr(t, parked, 5*time.Second, "parked op after close")
			if err != nil && err != engine.ErrClosed {
				t.Errorf("parked op error = %v, want nil or ErrClosed", err)
			}
		}
		if rt.Attached() != 0 {
			t.Fatalf("round %d: Attached() = %d after close, want 0", round, rt.Attached())
		}
	}
}

// TestSharedRuntimeCloseDuringParkedSend: a send parked on a full
// buffer must fail with ErrClosed when the instance detaches from the
// shared pool (the close-while-parked-send path the instance pool
// recycles through).
func TestSharedRuntimeCloseDuringParkedSend(t *testing.T) {
	rt := engine.NewRuntime(2)
	defer rt.Close()
	m, a, _ := regionChain(t, engine.Options{Runtime: rt})
	if err := m.Send(a, 1); err != nil { // fills the Fifo1
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		parked <- m.Send(a, 2) // buffer full: parks
	}()
	engine.WaitParked(t, m, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := waitForErr(t, parked, 2*time.Second, "parked send"); err != engine.ErrClosed {
		t.Errorf("parked send error = %v, want ErrClosed", err)
	}
}

// TestSharedRuntimeLivelockIsolation: a τ-livelock in one instance must
// break only that instance's group — a sibling instance sharing the
// same runtime keeps serving.
func TestSharedRuntimeLivelockIsolation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { livelockIsolation(t, workers) })
	}
}

func livelockIsolation(t *testing.T, workers int) {
	rt := engine.NewRuntime(workers)
	defer rt.Close()
	healthy, a, b := regionChain(t, engine.Options{Runtime: rt})
	defer healthy.Close()

	u := ca.NewUniverse()
	x, y := u.Port("x"), u.Port("y")
	ia, ib := u.Port("ia"), u.Port("ib")
	u.SetDir(ia, ca.DirSource)
	u.SetDir(ib, ca.DirSink)
	auts := []*ca.Automaton{
		prim.Fifo1Full(u, x, y, prim.Token{}), // token cycle with no task:
		prim.Fifo1(u, y, x),                   // spins until the τ budget fires
		prim.Fifo1(u, ia, ib),
	}
	sick, err := engine.NewMultiRegions(u, auts, engine.Options{Runtime: rt, MaxTauBurst: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer sick.Close()
	recvErr := make(chan error, 1)
	go func() {
		_, err := sick.Recv(ib)
		recvErr <- err
	}()
	if err := waitForErr(t, recvErr, 10*time.Second, "livelock propagation"); !errors.Is(err, engine.ErrLivelock) {
		t.Errorf("sick recv error = %v, want ErrLivelock", err)
	}
	// The healthy instance on the same pool is untouched.
	for i := 0; i < 50; i++ {
		go healthy.Send(a, i)
		if v, err := healthy.Recv(b); err != nil || v != i {
			t.Fatalf("healthy recv %d = %v, %v", i, v, err)
		}
	}
}

// --- local-continuation tests -------------------------------------------

// fifoChain builds stages Fifo1 buffers in a row between a and b. Every
// buffer is cut, so the chain plans stages links and stages+1 regions;
// the stages-1 relay regions between them are spliced into one link of
// capacity stages, so an item crosses from a's region to b's in one hop.
func fifoChain(t testing.TB, stages int, opts engine.Options) (*engine.Multi, ca.PortID, ca.PortID) {
	t.Helper()
	u := ca.NewUniverse()
	ports := make([]ca.PortID, stages+1)
	for i := range ports {
		ports[i] = u.Port(fmt.Sprintf("p%d", i))
	}
	u.SetDir(ports[0], ca.DirSource)
	u.SetDir(ports[stages], ca.DirSink)
	auts := make([]*ca.Automaton, stages)
	for i := range auts {
		auts[i] = prim.Fifo1(u, ports[i], ports[i+1])
	}
	m, err := engine.NewMultiRegions(u, auts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != stages+1 {
		t.Fatalf("partitions = %d, want %d", m.Partitions(), stages+1)
	}
	return m, ports[0], ports[stages]
}

// syncStageChain is fifoChain with a Sync after every buffer: each stage
// region holds a constituent, so no relay splices, the chain keeps its
// stages links of capacity 1, and every hop of an item is a wake-up of
// the next stage's region.
func syncStageChain(t testing.TB, stages int, opts engine.Options) (*engine.Multi, ca.PortID, ca.PortID) {
	t.Helper()
	u := ca.NewUniverse()
	ports := make([]ca.PortID, stages+1)
	for i := range ports {
		ports[i] = u.Port(fmt.Sprintf("p%d", i))
	}
	u.SetDir(ports[0], ca.DirSource)
	u.SetDir(ports[stages], ca.DirSink)
	var auts []*ca.Automaton
	for i := 0; i < stages; i++ {
		s := u.Port(fmt.Sprintf("s%d", i))
		auts = append(auts, prim.Fifo1(u, ports[i], s), prim.Sync(u, s, ports[i+1]))
	}
	m, err := engine.NewMultiRegions(u, auts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != stages+1 || len(m.Infos()) != stages+1 {
		t.Fatalf("partitions = %d, want %d", m.Partitions(), stages+1)
	}
	for ri, in := range m.Infos() {
		if in.Constituents == 0 {
			t.Fatalf("region %d has no engine: a stage holding a Sync was spliced", ri)
		}
	}
	return m, ports[0], ports[stages]
}

// stream moves items ints from a to b — by scalar Send and Recv when k is
// 1, in batches of k otherwise (items must be a multiple of k) — and
// checks their order. The sender's error is reported on the returned
// channel.
func stream(t testing.TB, m *engine.Multi, a, b ca.PortID, items, k int) <-chan error {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		vals := make([]any, k)
		for i := 0; i < items; i += k {
			for j := range vals {
				vals[j] = i + j
			}
			var err error
			if k == 1 {
				err = m.Send(a, vals[0])
			} else {
				_, err = m.SendBatch(a, vals)
			}
			if err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	buf := make([]any, k)
	for i := 0; i < items; i += k {
		var err error
		if k == 1 {
			buf[0], err = m.Recv(b)
		} else {
			_, err = m.RecvBatch(b, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range buf {
			if v != i+j {
				t.Fatalf("item %d = %v", i+j, v)
			}
		}
	}
	return sent
}

// TestRuntimeContinuesLocally: streaming batches through an 8-stage chain
// whose stages hold a constituent (so every hop is a region pass), the
// workers must find most of their passes on their own run lists, and what
// went through the injection queue must be accounted for by the task
// operations and the parks, not grow with the hops.
func TestRuntimeContinuesLocally(t *testing.T) {
	const stages, batches, k = 8, 40, 64
	rt := engine.NewRuntime(2)
	m, a, b := syncStageChain(t, stages, engine.Options{Runtime: rt})
	sent := stream(t, m, a, b, batches*k, k)
	if err := waitForErr(t, sent, 5*time.Second, "sender"); err != nil {
		t.Fatal(err)
	}
	// A region counts a fire's step after publishing the items it moved
	// to its links, still holding its lock, so a later region can finish
	// the sink's Recv first: Close takes every region's lock, so the
	// count is final after it. Closing the pool joins the
	// workers, which makes the snapshot exact.
	m.Close()
	rt.Close()
	if got, want := m.Steps(), int64(batches*k*(stages+1)); got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
	st := rt.Stats()
	t.Logf("stats: %+v", st)
	if st.Passes != st.Local+st.Injected+st.Stolen+st.Caller {
		t.Errorf("passes %d != local %d + injected %d + stolen %d + caller %d", st.Passes, st.Local, st.Injected, st.Stolen, st.Caller)
	}
	hops := int64(batches * k * stages)
	if st.Passes < hops {
		t.Errorf("passes = %d, want at least one per hop (%d)", st.Passes, hops)
	}
	if 2*st.Local <= st.Passes {
		t.Errorf("only %d of %d passes continued locally, want the majority", st.Local, st.Passes)
	}
	// A ring entry is a wake-up from outside — at most two per task
	// operation (a region has two neighbors), one per region at attach —
	// or surplus, published once per parked worker.
	taskOps := int64(2 * batches)
	if shared, bound := st.Injected+st.Stolen, 2*taskOps+int64(stages+1)+st.Parks; shared > bound {
		t.Errorf("%d passes came through the injection queue, want at most %d (task operations and parks); hops: %d", shared, bound, hops)
	}
}

// TestRuntimeCallerRunsScalarChain: scalar items streamed through the
// 8-stage chain are carried by the tasks whose operations moved them —
// each finished Send or Recv walks the regions it woke — so they arrive
// in order while the workers run fewer passes than there are items (a
// pool that ran every hop would run about one per region per item). With
// the relays spliced, an item costs about two passes in all (one per
// chain end; 16 when every relay ran its own).
func TestRuntimeCallerRunsScalarChain(t *testing.T) {
	const stages, items = 8, 10000
	rt := engine.NewRuntime(2)
	m, a, b := fifoChain(t, stages, engine.Options{Runtime: rt})
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < items; i++ {
			if err := m.Send(a, i); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < items; i++ {
		if v, err := m.Recv(b); err != nil || v != i {
			t.Fatalf("recv %d = %v, %v", i, v, err)
		}
	}
	if err := waitForErr(t, sent, 5*time.Second, "sender"); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Steps(), int64(items*(stages+1)); got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
	m.Close()
	rt.Close()
	st := rt.Stats()
	t.Logf("stats: %+v", st)
	if st.Passes != st.Local+st.Injected+st.Stolen+st.Caller {
		t.Errorf("passes %d != local %d + injected %d + stolen %d + caller %d", st.Passes, st.Local, st.Injected, st.Stolen, st.Caller)
	}
	if st.Caller == 0 {
		t.Error("no pass ran on a task's goroutine")
	}
	if workers := st.Local + st.Injected + st.Stolen; workers >= items {
		t.Errorf("workers ran %d passes for %d items, want fewer than one per item", workers, items)
	}
	if st.Passes > 3*items {
		t.Errorf("%d passes for %d items, want at most 3 per item (the relays are spliced)", st.Passes, items)
	}
}

// TestRuntimeBatchChainPasses is the batched twin of
// TestRuntimeCallerRunsScalarChain: batches of 64 streamed through the
// 8-stage chain cross its one spliced 8-place link in fused bursts, so the
// whole pool runs at most one pass per item (about 0.25; 9.3 when every
// relay ran its own).
func TestRuntimeBatchChainPasses(t *testing.T) {
	const stages, batches, k = 8, 160, 64
	rt := engine.NewRuntime(2)
	m, a, b := fifoChain(t, stages, engine.Options{Runtime: rt})
	if err := waitForErr(t, stream(t, m, a, b, batches*k, k), 5*time.Second, "sender"); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Steps(), int64(batches*k*(stages+1)); got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
	m.Close()
	rt.Close()
	st := rt.Stats()
	t.Logf("stats: %+v", st)
	if items := int64(batches * k); st.Passes > items {
		t.Errorf("%d passes for %d items, want at most one per item (the relays are spliced)", st.Passes, items)
	}
}

// BenchmarkRegionCrossing measures what an item pays to cross a region
// boundary: b.N items (rounded up to whole batches) stream through
// syncStageChain's eight stages on a 2-worker runtime, scalar and in
// batches of 64. Every stage holds a Sync, so no stage splices or becomes
// an endpoint (only the producing end is one) and each crossing is a pass
// of the next stage's region. It reports the time per crossing, eight per
// item, and the runtime's passes per item.
func BenchmarkRegionCrossing(b *testing.B) {
	const stages = 8
	for _, k := range []int{1, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			rt := engine.NewRuntime(2)
			m, a, z := syncStageChain(b, stages, engine.Options{Runtime: rt})
			items := (b.N + k - 1) / k * k
			b.ResetTimer()
			if err := <-stream(b, m, a, z, items, k); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			m.Close()
			rt.Close()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items*stages), "ns/crossing")
			b.ReportMetric(float64(rt.Stats().Passes)/float64(items), "passes/item")
		})
	}
}

// TestRuntimeOneWorkerFairness: on a one-worker pool, an instance that
// keeps the worker's run list from ever emptying — by streaming without
// end, or by spinning a token through a closed relay cycle with an
// unbounded τ budget, whether the token was there from the start or a
// task's Send put it there — must not keep a sibling's operations from
// completing: the worker looks at the injection queue at a bounded
// interval. The kicking Send itself returns: a task walks at most as many
// passes after its operation as a worker takes from its run list in a
// row, and hands the pool the rest.
func TestRuntimeOneWorkerFairness(t *testing.T) {
	hogs := map[string]func(t *testing.T, rt *engine.Runtime) (stop func()){
		"streaming": func(t *testing.T, rt *engine.Runtime) func() {
			m, a, b := fifoChain(t, 8, engine.Options{Runtime: rt})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				vals := make([]any, 64)
				for {
					if _, err := m.SendBatch(a, vals); err != nil {
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				buf := make([]any, 64)
				for {
					if _, err := m.RecvBatch(b, buf); err != nil {
						return
					}
				}
			}()
			return func() { m.Close(); wg.Wait() }
		},
		"spinning": func(t *testing.T, rt *engine.Runtime) func() {
			u := ca.NewUniverse()
			x, y := u.Port("x"), u.Port("y")
			auts := []*ca.Automaton{prim.Fifo1Full(u, x, y, prim.Token{}), prim.Fifo1(u, y, x)}
			m, err := engine.NewMultiRegions(u, auts, engine.Options{Runtime: rt, MaxTauBurst: math.MaxInt})
			if err != nil {
				t.Fatal(err)
			}
			return func() { m.Close() }
		},
		"kicked": func(t *testing.T, rt *engine.Runtime) func() {
			// a's Send merges a token into the cycle x → y → w → x, whose
			// two links join the merger's region and y's node region.
			u := ca.NewUniverse()
			a, x, y, w := u.Port("a"), u.Port("x"), u.Port("y"), u.Port("w")
			u.SetDir(a, ca.DirSource)
			auts := []*ca.Automaton{
				prim.Merger(u, []ca.PortID{a, w}, x),
				prim.Fifo1(u, x, y),
				prim.Fifo1(u, y, w),
			}
			m, err := engine.NewMultiRegions(u, auts, engine.Options{Runtime: rt, MaxTauBurst: math.MaxInt})
			if err != nil {
				t.Fatal(err)
			}
			if m.Partitions() != 2 {
				t.Fatalf("partitions = %d, want 2", m.Partitions())
			}
			sent := make(chan error, 1)
			go func() { sent <- m.Send(a, prim.Token{}) }()
			if err := waitForErr(t, sent, 20*time.Second, "the kicking send"); err != nil {
				t.Fatal(err)
			}
			return func() { m.Close() }
		},
	}
	for name, hog := range hogs {
		t.Run(name, func(t *testing.T) {
			rt := engine.NewRuntime(1)
			defer rt.Close()
			stop := hog(t, rt)
			defer stop()
			m, a, b := regionChain(t, engine.Options{Runtime: rt})
			defer m.Close()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 20; i++ {
					if err := m.Send(a, i); err != nil {
						done <- err
						return
					}
					if v, err := m.Recv(b); err != nil || v != i {
						done <- fmt.Errorf("recv %d = %v, %v", i, v, err)
						return
					}
				}
				done <- nil
			}()
			if err := waitForErr(t, done, 20*time.Second, "the sibling's operations"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
