package explore

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Op is one schedule token: a batched operation on a boundary port.
// Sends carry their items; receives carry a capacity.
type Op struct {
	Port string
	Send bool
	Vals []any
	Cap  int
}

// Schedule is a launch-ordered list of port operations. The driver
// launches them one at a time, each at an idle barrier, deferring a
// token while its port still has an incomplete operation — so the
// realized arrival order is a deterministic function of the token order
// and the engine's (deterministic) completion behavior.
type Schedule struct {
	Ops []Op
}

// Tag is the item sender i (0-based) moves in round r; receivers see
// these tags, so per-port sequences identify both origin and order.
func Tag(i, r int) int { return (i+1)*1000 + r }

// tags returns the items sender i moves in rounds 0..n-1.
func tags(i, n int) []any {
	vs := make([]any, n)
	for r := range vs {
		vs[r] = Tag(i, r)
	}
	return vs
}

// KindSchedule is the fixed schedule of a connlib boundary shape at size
// n, moving rounds items per stream over the ports b names:
//
//   - many2one: one send per "in" port in array order, then one receive
//     per "out" port sized for every item (an aggregating connector
//     leaves it short);
//   - one2many: one receive per "out" port sized for the whole stream
//     (a router leaves them short), then the one "in" port's send;
//   - many2many and gated: sends on "a", then receives on "b"; a gated
//     connector's control vertex stays idle, its valve open;
//   - clients: sends on "c"; receivers: receives on "c";
//   - acqrel: alternating one-item sends on "acq" and "rel".
//
// Only many2one and one2many may end with a receive short, released by
// the close that ends the run (Outcome.Deadlock).
func KindSchedule(b engine.Backend, kind string, n, rounds int) (*Schedule, error) {
	s := &Schedule{}
	send := func(param string, items int) {
		for i, port := range b.Ports(param) {
			s.Ops = append(s.Ops, Op{Port: port, Send: true, Vals: tags(i, items)})
		}
	}
	recv := func(param string, items int) {
		for _, port := range b.Ports(param) {
			s.Ops = append(s.Ops, Op{Port: port, Cap: items})
		}
	}
	switch kind {
	case "many2one":
		send("in", rounds)
		recv("out", n*rounds)
	case "one2many":
		recv("out", n*rounds)
		send("in", n*rounds)
	case "many2many", "gated":
		send("a", rounds)
		recv("b", rounds)
	case "clients":
		send("c", rounds)
	case "receivers":
		recv("c", rounds)
	case "acqrel":
		acq, rel := b.Ports("acq")[0], b.Ports("rel")[0]
		for r := 0; r < rounds; r++ {
			s.Ops = append(s.Ops,
				Op{Port: acq, Send: true, Vals: []any{Tag(0, r)}},
				Op{Port: rel, Send: true, Vals: []any{Tag(1, r)}})
		}
	default:
		return nil, fmt.Errorf("explore: unknown connector kind %q", kind)
	}
	return s, nil
}

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
		streams[i] = tags(i, l)
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
	// Released lists per port, in launch order, the error each operation
	// released by the driver's close returned ("<nil>" for none), digit
	// runs normalized as Broken compares.
	Released map[string][]string
}

type opState struct {
	op       Op
	moved    int32
	done     int32
	errS     atomic.Value // string
	released bool         // still outstanding when the driver closed
}

// hangGuard bounds every wait of the driver: a barrier not reached in
// that long fails the run, it is never taken for a fixpoint.
const hangGuard = 10 * time.Second

// RunSchedule drives the backend through the schedule deterministically:
// tokens launch one at a time in order (first token whose port is free),
// each at an idle barrier — every launched operation has returned or is
// parked, and no region pass is running or due (engine.Coordinator's
// Parked and Busy). When no token can launch at the barrier, the run is
// declared deadlocked if any token is left or any operation parked, and
// closed with closeFn (b.Close when nil); pending operations then record
// their partial prefixes and their errors (Outcome.Released), which are
// part of the observed behavior.
func RunSchedule(b engine.Backend, s *Schedule, closeFn func() error) (*Outcome, error) {
	if closeFn == nil {
		closeFn = b.Close
	}
	out := &Outcome{Seqs: map[string][]string{}}
	states := make([]*opState, 0, len(s.Ops))
	busy := map[string]*opState{}
	pendingTok := append([]Op(nil), s.Ops...)

	// outstanding counts the launched operations that have not returned.
	outstanding := func() int64 {
		n := int64(len(states))
		for _, st := range states {
			n -= int64(atomic.LoadInt32(&st.done))
		}
		return n
	}
	launch := func(op Op) {
		st := &opState{op: op}
		states = append(states, st)
		busy[op.Port] = st
		go func() {
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
	}

	for {
		if err := engine.AwaitIdle(b, outstanding, hangGuard); err != nil {
			closeFn()
			return nil, fmt.Errorf("explore: %w", err)
		}
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
		launch(op)
	}

	out.Deadlock = len(pendingTok) > 0 || len(busy) > 0
	for _, st := range busy {
		st.released = true // parked at the barrier, so only the close ends it
	}
	_ = closeFn()
	// Nothing stays parked after the close, so this barrier is every
	// operation returned.
	if err := engine.AwaitIdle(b, outstanding, hangGuard); err != nil {
		return nil, fmt.Errorf("explore: after close: %w", err)
	}

	// Record per-port sequences in launch order. An error of an operation
	// that returned before the driver's own close marks the run broken;
	// the close's partials and errors are recorded as Released.
	for _, st := range states {
		n := int(atomic.LoadInt32(&st.moved))
		seq := out.Seqs[st.op.Port]
		for i := 0; i < n && i < len(st.op.Vals); i++ {
			seq = append(seq, fmt.Sprint(st.op.Vals[i]))
		}
		out.Seqs[st.op.Port] = seq
		e, _ := st.errS.Load().(string)
		if st.released {
			if e == "" {
				e = "<nil>"
			}
			if out.Released == nil {
				out.Released = map[string][]string{}
			}
			out.Released[st.op.Port] = append(out.Released[st.op.Port], normalizeBroken(e))
		} else if e != "" && out.Broken == "" {
			out.Broken = e
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
	perPort := func(what string, a, b map[string][]string) {
		var names []string
		for p := range a {
			names = append(names, p)
		}
		for p := range b {
			if _, ok := a[p]; !ok {
				names = append(names, p)
			}
		}
		sort.Strings(names)
		for _, p := range names {
			if x, y := strings.Join(a[p], ","), strings.Join(b[p], ","); x != y {
				d = append(d, fmt.Sprintf("%s %s: %s=[%s] %s=[%s]", what, p, refName, x, gotName, y))
			}
		}
	}
	perPort("port", ref.Seqs, got.Seqs)
	// Engine errors embed backend-dependent identifiers (partitioned
	// universes renumber ports), so Broken compares with digit runs
	// normalized: the error class must agree, not the raw IDs.
	if normalizeBroken(ref.Broken) != normalizeBroken(got.Broken) {
		d = append(d, fmt.Sprintf("broken: %s=%q %s=%q", refName, ref.Broken, gotName, got.Broken))
	}
	// The errors the close released, normalized when recorded.
	perPort("released", ref.Released, got.Released)
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
