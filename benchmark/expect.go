package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	reo "repro"
	"repro/internal/connlib"
)

// This file is the correctness oracle: what every workload's outputs must
// look like, written down by hand from the connectors' definitions and
// never derived from the engine under test. Violations feed
// failed_ops_share and a non-zero exit.

// fault is the -inject-fault self-test: armed, it corrupts exactly one
// received value on its way from the program under test to the oracle, and
// the oracle must notice.
type fault struct {
	armed atomic.Bool
	fired atomic.Bool
}

func (f *fault) tap(v any) any {
	if f == nil || !f.armed.Load() || !f.armed.CompareAndSwap(true, false) {
		return v
	}
	f.fired.Store(true)
	switch x := v.(type) {
	case int:
		return x + 1
	case float64:
		return x + 1
	case bool:
		return !x
	}
	return nil
}

// stride separates the value ranges of a cell's senders: sender s sends
// base + s*stride + k for k = 0, 1, ….
const stride = 1 << 20

// shape is the hand-written expectation for one connlib connector: how
// many deliveries n senders × k values produce, and which sequences the
// receivers must see.
type shape struct {
	// want is the number of deliveries (completed receives; completed
	// sends for connectors without receivers) after which every sender
	// has been served.
	want func(n, k int) int
	// check inspects what each receiver got. val(s, i) is sender s's i-th
	// value. It returns the number of wrong deliveries.
	check func(n, k int, got [][]int, val func(s, i int) int) (bad int, why string)
}

// exactFrom: receiver r sees exactly the sequence of sender src(r).
func exactFrom(src func(r, n int) int, receivers func(n int) int) shape {
	return shape{
		want: func(n, k int) int { return receivers(n) * k },
		check: func(n, k int, got [][]int, val func(s, i int) int) (int, string) {
			bad, why := 0, ""
			for r, seq := range got {
				s := src(r, n)
				if len(seq) != k {
					bad += abs(len(seq) - k)
					why = fmt.Sprintf("receiver %d got %d values, want %d", r, len(seq), k)
				}
				for i := 0; i < len(seq) && i < k; i++ {
					if seq[i] != val(s, i) {
						bad++
						why = fmt.Sprintf("receiver %d item %d = %d, want %d (sender %d)", r, i, seq[i], val(s, i), s)
					}
				}
			}
			return bad, why
		},
	}
}

// conserved: the multiset of everything received equals the multiset of
// everything sent by the given senders, each exactly once, and every
// receiver sees each sender's values in sending order.
func conserved(senders func(n int) int) shape {
	return shape{
		want: func(n, k int) int { return senders(n) * k },
		check: func(n, k int, got [][]int, val func(s, i int) int) (int, string) {
			bad, why := 0, ""
			var all []int
			for r, seq := range got {
				last := make(map[int]int) // sender -> last index seen
				for _, v := range seq {
					s, i := (v-val(0, 0))/stride, (v-val(0, 0))%stride
					if prev, ok := last[s]; ok && i <= prev {
						bad++
						why = fmt.Sprintf("receiver %d saw sender %d out of order (%d after %d)", r, s, i, prev)
					}
					last[s] = i
				}
				all = append(all, seq...)
			}
			var sent []int
			for s := 0; s < senders(n); s++ {
				for i := 0; i < k; i++ {
					sent = append(sent, val(s, i))
				}
			}
			sort.Ints(all)
			sort.Ints(sent)
			if len(all) != len(sent) {
				bad += abs(len(all) - len(sent))
				why = fmt.Sprintf("%d values received, %d sent", len(all), len(sent))
			}
			for i := 0; i < len(all) && i < len(sent); i++ {
				if all[i] != sent[i] {
					bad++
					why = fmt.Sprintf("received multiset differs from sent at rank %d: %d vs %d", i, all[i], sent[i])
				}
			}
			return bad, why
		},
	}
}

func one(int) int   { return 1 }
func all(n int) int { return n }

var (
	// Every receiver sees the single sender's stream.
	replicated = exactFrom(func(r, n int) int { return 0 }, all)
	// Receiver i sees sender i's stream.
	lanewise = exactFrom(func(r, n int) int { return r }, all)
	// One receiver; round k delivers sender 0, 1, …, n-1 in that order.
	alternating = shape{
		want: func(n, k int) int { return n * k },
		check: func(n, k int, got [][]int, val func(s, i int) int) (int, string) {
			bad, why := 0, ""
			seq := got[0]
			if len(seq) != n*k {
				bad += abs(len(seq) - n*k)
				why = fmt.Sprintf("got %d values, want %d", len(seq), n*k)
			}
			for j := 0; j < len(seq) && j < n*k; j++ {
				if want := val(j%n, j/n); seq[j] != want {
					bad++
					why = fmt.Sprintf("item %d = %d, want %d", j, seq[j], want)
				}
			}
			return bad, why
		},
	}
	// No receivers: the oracle is that every client completes its k
	// operations (and, for Lock, mutual exclusion, checked while running).
	completes = shape{
		want:  func(n, k int) int { return n * k },
		check: func(int, int, [][]int, func(int, int) int) (int, string) { return 0, "" },
	}
)

// shapes maps each connlib connector to its expectation. A connector added
// to connlib without an entry here fails its cells ("no oracle").
var shapes = map[string]shape{
	"Merger":               conserved(all),
	"EarlyAsyncMerger":     conserved(all),
	"LateAsyncMerger":      conserved(all),
	"Router":               conserved(one),
	"EarlyAsyncRouter":     conserved(one),
	"LateAsyncRouter":      conserved(one),
	"Replicator":           replicated,
	"EarlyAsyncReplicator": replicated,
	"LateAsyncReplicator":  replicated,
	"Barrier":              lanewise,
	"OrderedMany2One":      lanewise,
	"Valve":                lanewise,
	// Sync(a[i]; b[i%n+1]): receiver r hears from sender r-1.
	"Exchanger":  exactFrom(func(r, n int) int { return (r - 1 + n) % n }, all),
	"Alternator": alternating,
	// Only the last fifo reaches out; the others are sequenced and drained.
	"Discriminator": exactFrom(func(r, n int) int { return n - 1 }, one),
	"Sequencer":     completes,
	"Lock":          completes,
	// Every receiver sees the one circulating token, k times.
	"TokenRing": {
		want: func(n, k int) int { return n * k },
		check: func(n, k int, got [][]int, _ func(int, int) int) (int, string) {
			bad, why := 0, ""
			for r, seq := range got {
				if len(seq) != k {
					bad += abs(len(seq) - k)
					why = fmt.Sprintf("receiver %d got %d tokens, want %d", r, len(seq), k)
				}
				for i, v := range seq {
					if v != tokenSeen {
						bad++
						why = fmt.Sprintf("receiver %d item %d is not a token", r, i)
					}
				}
			}
			return bad, why
		},
	},
}

// tokenSeen is what asInt records for a non-nil value that is not an int
// (TokenRing circulates a unit token).
const tokenSeen = -2

func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case nil:
		return -1
	}
	return tokenSeen
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// cellCheck is the outcome of one verified pass over a connector instance.
type cellCheck struct {
	attempted, failed int64
	why               string
	first             time.Duration // start of the pass -> first delivery
	opUS              []float64     // per completed port operation, µs (only when timed)
}

// checkTimeout bounds a verified pass: a deadlocked connector fails its
// cell instead of hanging the run.
const checkTimeout = 20 * time.Second

// runChecked drives k values per sender through inst with the task layout
// of d.Kind (the layout connlib.Drive uses), stops once the expected number
// of deliveries arrived, closes the instance and holds what the receivers
// saw against the connector's shape. timed also records the latency of the
// port operations of the pass's second half. The caller owns Connect;
// runChecked always Closes.
func runChecked(d connlib.Def, inst *reo.Instance, n, k, base int, f *fault, timed bool) cellCheck {
	sh, ok := shapes[d.Name]
	if !ok {
		inst.Close()
		return cellCheck{attempted: 1, failed: 1, why: "no oracle for connector " + d.Name}
	}
	val := func(s, i int) int { return base + s*stride + i }
	want := int64(sh.want(n, k))

	var (
		delivered atomic.Int64
		firstNS   atomic.Int64
		done      = make(chan struct{})
		doneOnce  sync.Once
		start     = time.Now()
		mu        sync.Mutex
		lat       []float64
		shortfall atomic.Int64 // operations that failed before their task was served
		holders   atomic.Int32
		exclusion atomic.Int64
		senders   sync.WaitGroup
		receivers sync.WaitGroup
	)
	deliver := func() {
		if delivered.Add(1) == 1 {
			firstNS.Store(int64(time.Since(start)))
		}
		if delivered.Load() == want {
			doneOnce.Do(func() { close(done) })
		}
	}
	// op runs one port operation, timing it when asked. The first half of
	// the pass is the warm-up: a fresh instance expands its composite
	// states on first visit, and the timed half should see the steady
	// state.
	op := func(local *[]float64, call func() error) error {
		if !timed || delivered.Load() < want/2 {
			return call()
		}
		t0 := time.Now()
		err := call()
		if err == nil {
			*local = append(*local, float64(time.Since(t0))/1e3)
		}
		return err
	}
	flush := func(local []float64) {
		if timed {
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}
	}
	// sender s sends its k values; counted says whether completed sends are
	// the deliveries (connectors without receivers).
	sender := func(out reo.Outport, s int, counted bool) {
		senders.Add(1)
		go func() {
			defer senders.Done()
			var local []float64
			defer func() { flush(local) }()
			for i := 0; i < k; i++ {
				v := val(s, i)
				if err := op(&local, func() error { return out.Send(v) }); err != nil {
					shortfall.Add(int64(k - i))
					return
				}
				if counted {
					deliver()
				}
			}
		}()
	}
	got := make([][]int, 0, n)
	// receiver r receives until it has limit values (0 = until Close).
	receiver := func(in reo.Inport, limit int) {
		r := len(got)
		got = append(got, nil)
		receivers.Add(1)
		go func() {
			defer receivers.Done()
			var local []float64
			defer func() { flush(local) }()
			var seq []int
			defer func() { mu.Lock(); got[r] = seq; mu.Unlock() }()
			for limit == 0 || len(seq) < limit {
				var v any
				err := op(&local, func() (err error) { v, err = in.Recv(); return })
				if err != nil {
					return
				}
				seq = append(seq, asInt(f.tap(v)))
				deliver()
			}
		}()
	}

	switch d.Kind {
	case connlib.ManyToOne:
		receiver(inst.Inport("out"), int(want))
		for s, p := range inst.Outports("in") {
			sender(p, s, false)
		}
	case connlib.OneToMany:
		per := 0
		if want == int64(n*k) {
			per = k
		}
		for _, p := range inst.Inports("out") {
			receiver(p, per)
		}
		sender(inst.Outport("in"), 0, false)
	case connlib.ManyToMany, connlib.GatedManyToMany:
		for _, p := range inst.Inports("b") {
			receiver(p, k)
		}
		for s, p := range inst.Outports("a") {
			sender(p, s, false)
		}
		if d.Kind == connlib.GatedManyToMany {
			// The control task toggles the valve until Close, as in
			// connlib.Drive; it is not one of the counted senders.
			ctl := inst.Outport("ctl")
			receivers.Add(1)
			go func() {
				defer receivers.Done()
				for x := 0; ctl.Send(x&1) == nil; x++ {
				}
			}()
		}
	case connlib.ClientsOnly:
		for s, p := range inst.Outports("c") {
			sender(p, s, true)
		}
	case connlib.ReceiversOnly:
		for _, p := range inst.Inports("c") {
			receiver(p, k)
		}
	case connlib.AcquireRelease:
		acq, rel := inst.Outports("acq"), inst.Outports("rel")
		for s := range acq {
			s := s
			senders.Add(1)
			go func() {
				defer senders.Done()
				var local []float64
				defer func() { flush(local) }()
				for i := 0; i < k; i++ {
					v := val(s, i)
					if err := op(&local, func() error { return acq[s].Send(v) }); err != nil {
						shortfall.Add(int64(k - i))
						return
					}
					if holders.Add(1) != 1 {
						exclusion.Add(1)
					}
					holders.Add(-1)
					if err := op(&local, func() error { return rel[s].Send(v) }); err != nil {
						shortfall.Add(int64(k - i))
						return
					}
					deliver()
				}
			}()
		}
	}

	res := cellCheck{attempted: want}
	timer := time.NewTimer(checkTimeout)
	defer timer.Stop()
	select {
	case <-done:
		// Every delivery arrived, so every counted send has fired; let the
		// senders return from their last Send before closing under them.
		finished := make(chan struct{})
		go func() { senders.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-timer.C:
			res.why = "senders still blocked after every delivery arrived"
			res.failed = want
		}
	case <-timer.C:
		res.why = fmt.Sprintf("timed out with %d of %d deliveries", delivered.Load(), want)
		res.failed = want
	}
	inst.Close()
	senders.Wait()
	receivers.Wait()
	res.first = time.Duration(firstNS.Load())
	res.opUS = lat
	if res.failed > 0 {
		return res
	}
	bad, why := sh.check(n, k, got, val)
	if x := exclusion.Load(); x > 0 {
		bad, why = bad+int(x), fmt.Sprintf("%d acquisitions while the lock was held", x)
	}
	if x := shortfall.Load(); x > 0 {
		bad, why = bad+int(x), fmt.Sprintf("%d operations failed before completing", x)
	}
	res.failed, res.why = min(int64(bad), want), why
	return res
}

// payloadPeriod is the length of the value table the streaming workloads
// cycle through. Its values are the ints 0..255 in seeded rotation: Go
// boxes those into an interface without allocating, so a delivered item
// costs an allocation only if the connector, the link or the wire codec
// makes one — which is what allocs_per_op pins at 0.
const payloadPeriod = 256

// payload returns the seeded value table.
func payload(seed int64) []any {
	off := int(uint64(seed) % payloadPeriod)
	vals := make([]any, payloadPeriod)
	for i := range vals {
		vals[i] = (off + i) % payloadPeriod
	}
	return vals
}

// fifoCheck is the oracle of the pipeline, lane and remote workloads: the
// sink must see the payload table in order, over and over (FIFO), and the
// sum of what it saw must equal the closed form for that many values.
type fifoCheck struct {
	vals []any
	next int
	sum  uint64
	bad  int64
}

func (c *fifoCheck) add(v any) {
	if v != c.vals[c.next%payloadPeriod] {
		c.bad++
	}
	if x, ok := v.(int); ok {
		c.sum += uint64(x)
	}
	c.next++
}

// verify returns the number of wrong deliveries among the n expected.
func (c *fifoCheck) verify(n int) int64 {
	// Every full period sums to 0+1+…+255 whatever the rotation.
	want := uint64(n/payloadPeriod) * (payloadPeriod * (payloadPeriod - 1) / 2)
	for _, v := range c.vals[:n%payloadPeriod] {
		want += uint64(v.(int))
	}
	if c.next != n || c.sum != want {
		return max(c.bad, 1)
	}
	return c.bad
}
