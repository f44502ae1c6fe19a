// Tests of the batched port operations: semantics (ordered independent
// items, partial completion on close), the fused pure-flow fast path's
// accounting, and the zero-allocation guarantee of the steady-state
// firing path under batches.
package reo_test

import (
	"testing"

	reo "repro"
)

// TestBatchFusedFlow pins the fused fast path on a stateless relay: a
// k-item batch through Sync must count k global steps (parity with the
// scalar run) while deciding dispatch only once — the amortization the
// batch buys.
func TestBatchFusedFlow(t *testing.T) {
	prog := reo.MustCompile(`Relay(a;b) = Sync(a;b)`)
	inst, err := prog.MustConnector("Relay").Connect(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	out := inst.Outport("a")
	in := inst.Inport("b")

	const k = 128
	vs := make([]any, k)
	for i := range vs {
		vs[i] = i * 3
	}
	errc := make(chan error, 1)
	go func() { errc <- out.SendBatch(vs) }()
	buf := make([]any, k)
	n, err := in.RecvBatch(buf)
	if err != nil || n != k {
		t.Fatalf("RecvBatch = %d, %v; want %d, nil", n, err, k)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != i*3 {
			t.Fatalf("buf[%d] = %v, want %d", i, buf[i], i*3)
		}
	}
	if inst.Steps() != k {
		t.Errorf("Steps() = %d, want %d (every fused item is one global step)", inst.Steps(), k)
	}
	// One indexed dispatch for the whole burst: the 127 fused firings
	// re-evaluate no guards and rescan no candidates. The trailing
	// quiescence scan after the burst may add a handful of evaluations,
	// but nothing proportional to k.
	if ge := inst.GuardEvals(); ge > k/4 {
		t.Errorf("GuardEvals() = %d for %d items; fused burst should not dispatch per item", ge, k)
	}
}

// TestBatchPartialOnClose verifies the partial-batch contract: closing
// the connector mid-batch fails the operation but reports how many items
// had already moved.
func TestBatchPartialOnClose(t *testing.T) {
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	inst, err := prog.MustConnector("Lane").Connect(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Outport("a").Send(7); err != nil {
		t.Fatal(err)
	}
	// The receive fires the buffered item and then parks with two slots
	// unfilled; close it out.
	type result struct {
		n   int
		err error
	}
	res := make(chan result, 1)
	buf := make([]any, 3)
	go func() {
		n, err := inst.Inport("b").RecvBatch(buf)
		res <- result{n, err}
	}()
	waitParked(t, inst.Backend(), 1)
	inst.Close()
	r := <-res
	n, err := r.n, r.err
	if err == nil {
		t.Fatal("RecvBatch succeeded past a close")
	}
	if n != 1 || buf[0] != 7 {
		t.Fatalf("RecvBatch = %d (buf[0]=%v), want 1 delivered item", n, buf[0])
	}
}

// TestBatchEmptyAndBusy pins the edge cases: empty batches are no-ops,
// and a port stays single-owner while a batch is pending.
func TestBatchEmptyAndBusy(t *testing.T) {
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	inst, err := prog.MustConnector("Lane").Connect(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	out := inst.Outport("a")
	in := inst.Inport("b")
	if err := out.SendBatch(nil); err != nil {
		t.Fatalf("empty SendBatch: %v", err)
	}
	if n, err := in.RecvBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty RecvBatch = %d, %v", n, err)
	}
	// A two-item batch on a Fifo1 pends after its first item; a second
	// operation on the same port must be rejected.
	errc := make(chan error, 1)
	go func() { errc <- out.SendBatch([]any{1, 2}) }()
	waitParked(t, inst.Backend(), 1)
	if err := out.Send(9); err == nil {
		t.Error("second operation on a port with a pending batch succeeded")
	}
	if _, err := in.RecvBatch(make([]any, 2)); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestBatchedSteadyStateAllocs asserts the hot-path guarantee the
// batched refactor must preserve: once every composite state is expanded
// and the op pool is warm, moving batches allocates nothing — not per
// operation and not per item. The Fifo chain absorbs a whole batch
// inside the send's own fire loop and drains it inside the receive's, so
// the measurement is single-goroutine deterministic.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is unreliable under -race")
	}
	prog := reo.MustCompile(`
Chain(a;b) = Fifo1(a;m1) mult Fifo1(m1;m2) mult Fifo1(m2;m3)
    mult Fifo1(m3;m4) mult Fifo1(m4;m5) mult Fifo1(m5;m6)
    mult Fifo1(m6;m7) mult Fifo1(m7;b)`)
	// AOT: the chain has 2^8 composite states and the engine picks among
	// enabled fills/drains randomly, so a JIT run keeps expanding fresh
	// states long past one warm round; expanding ahead of time leaves the
	// measured rounds nothing to allocate.
	inst, err := prog.MustConnector("Chain").Connect(nil, reo.WithMode(reo.AOT))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	out := inst.Outport("a")
	in := inst.Inport("b")

	const k = 8 // chain capacity: one batch fits entirely
	vs := make([]any, k)
	for i := range vs {
		vs[i] = i // pre-boxed payloads; boxing is caller-side work
	}
	buf := make([]any, k)
	round := func() {
		if err := out.SendBatch(vs); err != nil {
			t.Fatal(err)
		}
		if n, err := in.RecvBatch(buf); err != nil || n != k {
			t.Fatalf("RecvBatch = %d, %v", n, err)
		}
	}
	round() // warm: expand both composite state chains, fill the op pool

	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("steady-state batched round allocates %.2f times; want 0 (pooled ops, capacity-preserving value slices)", avg)
	}

	// The scalar path is the k=1 case of the same code path and must
	// stay allocation-free too (the BenchmarkFireSteady guarantee).
	if avg := testing.AllocsPerRun(200, func() {
		if err := out.Send(1); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Recv(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state scalar round allocates %.2f times; want 0", avg)
	}
}

// TestRegionChainSteadyStateAllocs: the synchronous region lane — the
// 8-stage chain cut into 9 regions, no runtime — walks every hop of an
// item on the goroutine of the operation that moved it. Once warm, a
// Send/Recv round allocates nothing: the walk keeps its queue on its own
// stack and every region reuses its nudge buffer.
func TestRegionChainSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is unreliable under -race")
	}
	prog := reo.MustCompile(`
Chain(a;b) =
    prod (i:1..1) Fifo1(a;m1)
    mult prod (i:1..1) Fifo1(m1;m2)
    mult prod (i:1..1) Fifo1(m2;m3)
    mult prod (i:1..1) Fifo1(m3;m4)
    mult prod (i:1..1) Fifo1(m4;m5)
    mult prod (i:1..1) Fifo1(m5;m6)
    mult prod (i:1..1) Fifo1(m6;m7)
    mult prod (i:1..1) Fifo1(m7;b)`)
	inst, err := prog.MustConnector("Chain").Connect(nil, reo.WithPartitioning(reo.PartitionRegions))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if n := len(inst.Regions()); n != 9 {
		t.Fatalf("regions = %d, want 9", n)
	}
	out := inst.Outport("a")
	in := inst.Inport("b")
	round := func() {
		if err := out.Send(1); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round() // warm: every region's states kept, nudge buffers grown
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("steady-state scalar round through 9 synchronous regions allocates %.2f times; want 0", avg)
	}
}
