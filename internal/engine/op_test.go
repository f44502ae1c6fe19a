package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/prim"
)

// The operation lifecycle: every op registers in the engine's scratch
// slot; one that its own fire loop finishes returns from there, one that
// has to wait migrates to a pooled op and parks. These tests pin both
// halves and the hand-over between them.

func fifoLane(t *testing.T) (e *Engine, a, b ca.PortID) {
	t.Helper()
	u := ca.NewUniverse()
	a, b = u.Port("a"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	e, err := New(u, []*ca.Automaton{prim.Fifo1(u, a, b)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, a, b
}

// WaitParked returns once exactly n operations are parked on c and no
// pass of it is running or due (AwaitIdle with n outstanding) — the way
// to know operations are pending without sleeping. Exported for the
// package's external tests.
func WaitParked(t testing.TB, c interface {
	Parked() int64
	Busy() bool
}, n int64) {
	t.Helper()
	if err := AwaitIdle(c, func() int64 { return n }, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// parkedOn waits until one operation is parked and returns the op
// pending on p, which must have left the scratch slot.
func parkedOn(t *testing.T, e *Engine, p ca.PortID) *op {
	t.Helper()
	WaitParked(t, e, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.pend[p]
	if o == nil || o == &e.scratch || o.done == nil {
		t.Fatalf("port %d: pending op %p is not a parked pooled op (scratch %p)", p, o, &e.scratch)
	}
	return o
}

// checkScratchClear: outside register the scratch slot must hold nothing —
// above all no reference to a caller's batch or payload.
func checkScratchClear(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := &e.scratch; s.vals != nil || s.inline[0] != nil || s.cur != 0 || s.err != nil || s.done != nil {
		t.Errorf("scratch slot not clear: %+v", *s)
	}
}

// opResult is what a port operation running on its own goroutine reports:
// the item count of a batch, the value of a scalar Recv, the error.
type opResult struct {
	n   int
	v   any
	err error
}

// awaitOp receives one operation result, failing the test on a hang.
func awaitOp(t *testing.T, ch <-chan opResult, what string) opResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return opResult{}
	}
}

// TestOpSelfCompletingNeverParks: operations that fire on arrival finish
// in the scratch slot — no pooled op is ever created, and nothing
// allocates.
func TestOpSelfCompletingNeverParks(t *testing.T) {
	e, a, b := fifoLane(t)
	round := func() {
		if err := e.Send(a, 7); err != nil {
			t.Fatal(err)
		}
		if v, err := e.Recv(b); err != nil || v != 7 {
			t.Fatalf("recv = %v, %v", v, err)
		}
	}
	round() // warm: expand both states; AllocsPerRun's own warm-up round keeps the second
	if avg := testing.AllocsPerRun(10_000, round); avg != 0 {
		t.Errorf("self-completing Send+Recv: %v allocs/op, want 0", avg)
	}
	if x := e.opPool.Get(); x != nil {
		t.Errorf("op pool holds %p after a loop that never parked", x)
	}
	if got := e.Steps(); got != 2*10_002 {
		t.Errorf("steps = %d, want %d", got, 2*10_002)
	}
	checkScratchClear(t, e)
}

// TestOpBatchMigratesWithCursor: a SendBatch whose first item fires inside
// register parks with that progress carried over, refuses a second
// operation on its port, and completes in order.
func TestOpBatchMigratesWithCursor(t *testing.T) {
	e, a, b := fifoLane(t)
	vals := []any{"x", "y", "z"}
	res := make(chan opResult, 1)
	go func() {
		n, err := e.SendBatch(a, vals)
		res <- opResult{n: n, err: err}
	}()
	o := parkedOn(t, e, a)
	e.mu.Lock()
	if o.cur != 1 || len(o.vals) != 3 || &o.vals[0] != &vals[0] {
		t.Errorf("migrated op: cur = %d, len = %d, aliases caller slice = %v; want 1, 3, true",
			o.cur, len(o.vals), &o.vals[0] == &vals[0])
	}
	e.mu.Unlock()
	checkScratchClear(t, e)
	if err := e.Send(a, "intruder"); err != ErrPortBusy {
		t.Errorf("second op on a parked port: err = %v, want ErrPortBusy", err)
	}
	for i, want := range vals {
		if v, err := e.Recv(b); err != nil || v != want {
			t.Fatalf("recv %d = %v, %v; want %v", i, v, err, want)
		}
	}
	if r := awaitOp(t, res, "SendBatch"); r.n != 3 || r.err != nil {
		t.Errorf("SendBatch = %d, %v; want 3, nil", r.n, r.err)
	}
	checkScratchClear(t, e)
}

// TestOpScalarRecvMigratesInline: a parked scalar Recv must alias the
// pooled op's own inline slot, not the scratch slot's, so the value a
// later fire delivers reaches it.
func TestOpScalarRecvMigratesInline(t *testing.T) {
	e, a, b := fifoLane(t)
	res := make(chan opResult, 1)
	go func() {
		v, err := e.Recv(b)
		res <- opResult{v: v, err: err}
	}()
	o := parkedOn(t, e, b)
	e.mu.Lock()
	if len(o.vals) != 1 || &o.vals[0] != &o.inline[0] {
		t.Error("parked scalar recv does not alias its own inline slot")
	}
	e.mu.Unlock()
	if err := e.Send(a, "payload"); err != nil {
		t.Fatal(err)
	}
	if r := awaitOp(t, res, "parked Recv"); r.v != "payload" || r.err != nil {
		t.Errorf("parked Recv = %v, %v; want payload", r.v, r.err)
	}
	checkScratchClear(t, e)
}

// TestOpGuardErrorFromOwnFire: when the registering op's own dispatch
// raises a guard error, Send returns it straight from the scratch slot,
// and the parked sibling is failed with it as before.
func TestOpGuardErrorFromOwnFire(t *testing.T) {
	u := ca.NewUniverse()
	a, h := u.Port("a"), u.Port("h")
	c, d := u.Port("c"), u.Port("d")
	u.SetDir(a, ca.DirSource)
	u.SetDir(c, ca.DirSource)
	u.SetDir(d, ca.DirSink)
	// The guard reads a hidden port no action defines: evaluating it is an
	// error, which breaks the engine.
	bad := ca.NewBuilder(u, "Bad", 1, 0).
		T(0, 0).Sync(a).Guard("any", ca.PortLoc(h), func(any) bool { return true }).Done().
		Build()
	e, err := New(u, []*ca.Automaton{bad, prim.Sync(u, c, d)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sibling := make(chan opResult, 1)
	go func() { sibling <- opResult{err: e.Send(c, 1)} }()
	parkedOn(t, e, c)

	gerr := e.Send(a, 2)
	if gerr == nil || errors.Is(gerr, ErrClosed) {
		t.Fatalf("send into a failing guard: err = %v, want the guard error", gerr)
	}
	if r := awaitOp(t, sibling, "parked sibling"); r.err != gerr {
		t.Errorf("sibling err = %v, want %v", r.err, gerr)
	}
	if err := e.Send(a, 3); err != gerr {
		t.Errorf("send on a broken engine: err = %v, want %v", err, gerr)
	}
	checkScratchClear(t, e)
	// Only the sibling ever parked, so at most its one op was pooled (the
	// race detector may have dropped even that).
	e.opPool.Get()
	if x := e.opPool.Get(); x != nil {
		t.Errorf("a second pooled op %p exists: the failing Send parked", x)
	}
}

// TestOpParkedAfterMigrationFails: Close and a sibling region's break
// must reach an op that parked with part of its batch moved, and
// RecvBatch must report that part.
func TestOpParkedAfterMigrationFails(t *testing.T) {
	errBreak := errors.New("sibling broke")
	for _, tc := range []struct {
		name string
		fail func(e *Engine)
		want error
	}{
		{"Close", func(e *Engine) { e.Close() }, ErrClosed},
		{"breakExternal", func(e *Engine) { e.breakExternal(errBreak) }, errBreak},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, a, b := fifoLane(t)
			if err := e.Send(a, 41); err != nil { // fills the buffer
				t.Fatal(err)
			}
			buf := make([]any, 3)
			res := make(chan opResult, 1)
			go func() {
				n, err := e.RecvBatch(b, buf)
				res <- opResult{n: n, err: err}
			}()
			parkedOn(t, e, b) // took the buffered item inside register, then parked
			tc.fail(e)
			if r := awaitOp(t, res, "parked RecvBatch"); r.n != 1 || r.err != tc.want {
				t.Errorf("RecvBatch = %d, %v; want 1, %v", r.n, r.err, tc.want)
			}
			if buf[0] != 41 || buf[1] != nil {
				t.Errorf("buf = %v, want [41 <nil> <nil>]", buf)
			}
			checkScratchClear(t, e)
		})
	}
}

// TestOpParkCount pins the gauge the idle barrier reads (Parked): an
// operation counts from the end of its registration until a fire, Close
// or a break completes it, and not a moment longer. So an operation a
// peer's fire completed is outstanding — neither parked nor returned —
// until its own goroutine returns, and nothing stays counted after Close
// or a break, a sibling region's included.
func TestOpParkCount(t *testing.T) {
	errBreak := errors.New("sibling broke")
	for _, tc := range []struct {
		name string
		// complete finishes the parked receive and reports whether it
		// should have delivered a value.
		complete func(e *Engine, a ca.PortID) bool
	}{
		{"fire", func(e *Engine, a ca.PortID) bool { return e.Send(a, "x") == nil }},
		{"Close", func(e *Engine, _ ca.PortID) bool { e.Close(); return false }},
		{"break", func(e *Engine, _ ca.PortID) bool { e.breakExternal(errBreak); return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, a, b := fifoLane(t)
			res := make(chan opResult, 1)
			go func() {
				v, err := e.Recv(b)
				res <- opResult{v: v, err: err}
			}()
			WaitParked(t, e, 1)
			delivered := tc.complete(e, a)
			// Completed under the lock: uncounted before its goroutine
			// can have returned.
			if n := e.Parked(); n != 0 {
				t.Errorf("Parked() = %d right after the completion, want 0", n)
			}
			if r := awaitOp(t, res, "parked Recv"); (r.err == nil) != delivered {
				t.Errorf("Recv = %v, %v; delivered = %v", r.v, r.err, delivered)
			}
			if n := e.Parked(); n != 0 {
				t.Errorf("Parked() = %d after the receive returned, want 0", n)
			}
		})
	}
	t.Run("sibling break", func(t *testing.T) {
		u := ca.NewUniverse()
		a, x, y, b := u.Port("a"), u.Port("x"), u.Port("y"), u.Port("b")
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		auts := []*ca.Automaton{prim.Sync(u, a, x), prim.Fifo1(u, x, y), prim.Sync(u, y, b)}
		m, err := NewMultiRegions(u, auts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		res := make(chan opResult, 1)
		go func() {
			_, err := m.Recv(b)
			res <- opResult{err: err}
		}()
		WaitParked(t, m, 1)
		// Breaking the sending region reaches the receiving one only
		// through the propagation goroutine: Busy until it is done.
		m.engines[m.owner[a]].breakExternal(errBreak)
		WaitParked(t, m, 0)
		if r := awaitOp(t, res, "parked Recv"); r.err != errBreak {
			t.Errorf("Recv err = %v, want %v", r.err, errBreak)
		}
	})
}
