package explore

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is the structural surface the driver needs — satisfied by
// engine.Backend (reo.Instance.Backend(), engine.NewNamed) and by the
// instances generated packages emit.
type Backend interface {
	SendBatch(port string, vs []any) (int, error)
	RecvBatch(port string, buf []any) (int, error)
	Ports(param string) []string
	Close() error
	Steps() int64
	GuardEvals() int64
	OpsRegistered() int64
}

// Op is one schedule token: a batched operation on a boundary port.
// Sends carry their items; receives carry a capacity.
type Op struct {
	Port string
	Send bool
	Vals []any
	Cap  int
}

// Schedule is a launch-ordered list of port operations. The driver
// launches them one at a time (each confirmed through OpsRegistered),
// deferring a token while its port still has an incomplete operation —
// so the realized arrival order is a deterministic function of the
// token order and the engine's (deterministic) completion behavior.
type Schedule struct {
	Ops []Op
}

// Tag is the item sender i moves in round r, matching gendrv.Tag so
// sequences identify origin and order.
func Tag(i, r int) int { return (i+1)*1000 + r }

// GenerateSchedule samples a chunked interleaved schedule for the given
// boundary ports: per-tail streams of seeded lengths split into chunks,
// per-head receive capacities split likewise, all riffled into one
// launch order. maxOps bounds the token count.
func GenerateSchedule(seed int64, ins, outs []string, maxOps int) *Schedule {
	r := newRNG(seed)
	if maxOps < 2 {
		maxOps = 2
	}
	total := 0
	streams := make([][]any, len(ins))
	for i := range ins {
		l := r.rangeIn(0, 6)
		vs := make([]any, l)
		for k := range vs {
			vs[k] = Tag(i, k)
		}
		streams[i] = vs
		total += l
	}
	// Worst-case deliverable items per head: replicator chains can copy
	// a tail item to several heads, but 2×total+2 covers every generated
	// shape and keeps short receives (routing, filtering) observable.
	capPer := 2*total + 2

	var perPort [][]Op
	for i, port := range ins {
		var ops []Op
		vs := streams[i]
		for len(vs) > 0 {
			n := r.rangeIn(1, 4)
			if n > len(vs) {
				n = len(vs)
			}
			ops = append(ops, Op{Port: port, Send: true, Vals: vs[:n]})
			vs = vs[n:]
		}
		perPort = append(perPort, ops)
	}
	for _, port := range outs {
		var ops []Op
		left := capPer
		for left > 0 {
			n := r.rangeIn(1, 5)
			if n > left {
				n = left
			}
			ops = append(ops, Op{Port: port, Cap: n})
			left -= n
			if len(ops) >= 4 && left > 0 { // a tail receiver absorbing the rest
				ops = append(ops, Op{Port: port, Cap: left})
				break
			}
		}
		perPort = append(perPort, ops)
	}

	// Riffle: repeatedly take the next token of a random nonempty port
	// stream, preserving per-port order.
	s := &Schedule{}
	for len(s.Ops) < maxOps {
		var nonempty []int
		for i := range perPort {
			if len(perPort[i]) > 0 {
				nonempty = append(nonempty, i)
			}
		}
		if len(nonempty) == 0 {
			break
		}
		i := nonempty[r.intn(len(nonempty))]
		s.Ops = append(s.Ops, perPort[i][0])
		perPort[i] = perPort[i][1:]
	}
	return s
}

// Rechunk rebuilds the schedule with every stream split into chunks of
// size k instead of its original chunking, preserving the relative
// launch order of the ports' first tokens. Batch-size lanes run the
// same logical streams through a different op granularity.
func (s *Schedule) Rechunk(k int) *Schedule {
	if k < 1 {
		k = 1
	}
	type stream struct {
		port string
		send bool
		vals []any
		cap_ int
	}
	var order []string
	byPort := map[string]*stream{}
	for _, op := range s.Ops {
		st := byPort[op.Port]
		if st == nil {
			st = &stream{port: op.Port, send: op.Send}
			byPort[op.Port] = st
			order = append(order, op.Port)
		}
		st.vals = append(st.vals, op.Vals...)
		st.cap_ += op.Cap
	}
	out := &Schedule{}
	live := true
	for live {
		live = false
		for _, port := range order {
			st := byPort[port]
			if st.send {
				if len(st.vals) == 0 {
					continue
				}
				n := k
				if n > len(st.vals) {
					n = len(st.vals)
				}
				out.Ops = append(out.Ops, Op{Port: port, Send: true, Vals: st.vals[:n]})
				st.vals = st.vals[n:]
				live = true
			} else {
				if st.cap_ == 0 {
					continue
				}
				n := k
				if n > st.cap_ {
					n = st.cap_
				}
				out.Ops = append(out.Ops, Op{Port: port, Cap: n})
				st.cap_ -= n
				live = true
			}
		}
	}
	return out
}

// Outcome is one run's observable behavior: per-port value sequences
// (concatenated over the port's completed op prefixes, rendered with
// fmt.Sprint), the engine counters, and how the run ended.
type Outcome struct {
	Seqs       map[string][]string
	Steps      int64
	GuardEvals int64
	Deadlock   bool   // closed at a fixpoint with unfinished tokens
	Broken     string // non-empty when an op failed before close (e.g. livelock)
}

// RunCfg tunes the driver for the lane's scheduling model.
type RunCfg struct {
	// Async marks lanes whose firing happens off the caller goroutines
	// (WithWorkers / WithRuntime): fixpoint detection then needs a 30 ms
	// wall-clock quiet window on top of counter stability. On the other
	// lanes only an op goroutine can fire: the fixpoint is immediate once
	// every launched op has returned, and otherwise needs 1 ms of quiet.
	Async bool
	// CloseFn overrides Backend.Close (reo instances recycle through
	// Instance.Close rather than the coordinator's).
	CloseFn func() error
}

type opState struct {
	op    Op
	moved int32
	done  int32
	errS  atomic.Value // string
}

// RunSchedule drives the backend through the schedule deterministically:
// tokens launch one at a time in order (first token whose port is free),
// each launch confirmed via OpsRegistered, with the engine settled to a
// fixpoint before every decision. When no token can launch and no
// operation can complete, the run is declared deadlocked and closed;
// pending operations then record their partial prefixes, which are part
// of the observed behavior.
func RunSchedule(b Backend, s *Schedule, cfg RunCfg) (*Outcome, error) {
	out := &Outcome{Seqs: map[string][]string{}}
	states := make([]*opState, 0, len(s.Ops))
	busy := map[string]*opState{}
	var wg sync.WaitGroup
	launched := 0
	pendingTok := append([]Op(nil), s.Ops...)

	doneCount := func() int {
		n := 0
		for _, st := range states {
			n += int(atomic.LoadInt32(&st.done))
		}
		return n
	}
	settle := func() {
		const stablePolls = 192
		deadline := time.Now().Add(10 * time.Second)
		var quietSince time.Time
		lastS, lastR, lastD := int64(-1), int64(-1), -1
		stable := 0
		for {
			sNow, rNow, dNow := b.Steps(), b.OpsRegistered(), doneCount()
			if sNow != lastS || rNow != lastR || dNow != lastD {
				lastS, lastR, lastD = sNow, rNow, dNow
				stable = 0
				quietSince = time.Now()
			} else {
				stable++
			}
			if stable >= stablePolls {
				window, nap := 30*time.Millisecond, time.Millisecond
				if !cfg.Async {
					if dNow == len(states) {
						return
					}
					// Gosched re-runs this goroutine from the global queue
					// before it would steal an op goroutine queued on another
					// P, so an op that is runnable but not running looks
					// quiet; sleeping idles this P, which then steals it.
					window, nap = time.Millisecond, 100*time.Microsecond
				}
				if time.Since(quietSince) > window {
					return
				}
				time.Sleep(nap)
			}
			if time.Now().After(deadline) {
				return
			}
			runtime.Gosched()
		}
	}
	launch := func(op Op) error {
		st := &opState{op: op}
		states = append(states, st)
		busy[op.Port] = st
		base := b.OpsRegistered()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int
			var err error
			if op.Send {
				n, err = b.SendBatch(op.Port, op.Vals)
			} else {
				buf := make([]any, op.Cap)
				n, err = b.RecvBatch(op.Port, buf)
				st.op.Vals = buf
			}
			atomic.StoreInt32(&st.moved, int32(n))
			if err != nil {
				st.errS.Store(err.Error())
			}
			atomic.StoreInt32(&st.done, 1)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for b.OpsRegistered() < base+1 {
			// A token whose previous same-port op completed inside the
			// engine but whose goroutine hasn't recorded yet can register
			// immediately; ops on other ports cannot, so waiting here is
			// safe only because the caller launches free ports only.
			if atomic.LoadInt32(&st.done) == 1 {
				break // failed fast (broken engine) without registering
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("explore: op on %q never registered", op.Port)
			}
			runtime.Gosched()
		}
		return nil
	}

	for {
		settle()
		// Free completed ports.
		for port, st := range busy {
			if atomic.LoadInt32(&st.done) == 1 {
				delete(busy, port)
			}
		}
		idx := -1
		for i, op := range pendingTok {
			if busy[op.Port] == nil {
				idx = i
				break
			}
		}
		if idx < 0 {
			break // nothing launchable at this fixpoint: done or deadlock
		}
		op := pendingTok[idx]
		pendingTok = append(pendingTok[:idx], pendingTok[idx+1:]...)
		if err := launch(op); err != nil {
			return nil, err
		}
		launched++
	}

	out.Deadlock = len(pendingTok) > 0 || len(busy) > 0
	closeFn := cfg.CloseFn
	if closeFn == nil {
		closeFn = b.Close
	}
	_ = closeFn()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		return nil, fmt.Errorf("explore: operations failed to release after close")
	}

	// Record per-port sequences in launch order; an op error before the
	// driver's own close marks the run broken (close-released partials
	// are expected and not errors).
	for _, st := range states {
		n := int(atomic.LoadInt32(&st.moved))
		seq := out.Seqs[st.op.Port]
		for i := 0; i < n && i < len(st.op.Vals); i++ {
			seq = append(seq, fmt.Sprint(st.op.Vals[i]))
		}
		out.Seqs[st.op.Port] = seq
		if e, _ := st.errS.Load().(string); e != "" && !out.Deadlock {
			if out.Broken == "" {
				out.Broken = e
			}
		}
	}
	out.Steps = b.Steps()
	out.GuardEvals = b.GuardEvals()
	return out, nil
}

func normalizeBroken(s string) string {
	var b strings.Builder
	inDigits := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteRune(r)
	}
	return b.String()
}

// DiffOutcomes compares two outcomes under a policy and returns a
// human-readable divergence description, or "" when they agree.
// seqsOnly drops the Steps/GuardEvals comparison (cross-group lanes);
// skipGuardEvals drops only GuardEvals (scheduling lanes, whose
// dispatch-scan count is timing-dependent).
func DiffOutcomes(ref, got *Outcome, refName, gotName string, seqsOnly, skipGuardEvals bool) string {
	var d []string
	ports := map[string]bool{}
	for p := range ref.Seqs {
		ports[p] = true
	}
	for p := range got.Seqs {
		ports[p] = true
	}
	var names []string
	for p := range ports {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		a, b := ref.Seqs[p], got.Seqs[p]
		if strings.Join(a, ",") != strings.Join(b, ",") {
			d = append(d, fmt.Sprintf("port %s: %s=[%s] %s=[%s]",
				p, refName, strings.Join(a, ","), gotName, strings.Join(b, ",")))
		}
	}
	// Engine errors embed backend-dependent identifiers (partitioned
	// universes renumber ports), so Broken compares with digit runs
	// normalized: the error class must agree, not the raw IDs.
	if normalizeBroken(ref.Broken) != normalizeBroken(got.Broken) {
		d = append(d, fmt.Sprintf("broken: %s=%q %s=%q", refName, ref.Broken, gotName, got.Broken))
	}
	if ref.Deadlock != got.Deadlock {
		d = append(d, fmt.Sprintf("deadlock: %s=%v %s=%v", refName, ref.Deadlock, gotName, got.Deadlock))
	}
	if !seqsOnly {
		if ref.Steps != got.Steps {
			d = append(d, fmt.Sprintf("steps: %s=%d %s=%d", refName, ref.Steps, gotName, got.Steps))
		}
		if !skipGuardEvals && ref.GuardEvals != got.GuardEvals {
			d = append(d, fmt.Sprintf("guardEvals: %s=%d %s=%d", refName, ref.GuardEvals, gotName, got.GuardEvals))
		}
	}
	return strings.Join(d, "; ")
}
