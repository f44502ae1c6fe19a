// Package gendrv is the deterministic differential driver shared by the
// interpreted engine and the packages emitted by `reoc gen`: the exact
// same schedule drives both backends through the name-addressed Backend
// surface.
//
// Determinism. A connector's per-port delivered sequences depend on the
// order operations arrive and on the engine's seeded choice among
// simultaneously enabled transitions. Drive pins both: operations are
// registered in a fixed order (each registration is confirmed through
// the monotonic OpsRegistered counter before the next is issued), every
// stream moves as one batched operation (so no mid-stream re-racing),
// and both backends resolve choice points with the same seeded RNG over
// identically ordered candidate lists. Under that discipline the global
// run is a deterministic function of (connector, schedule, seed), and
// the two backends must agree on every per-port sequence, on Steps, and
// on GuardEvals — which is exactly what the differential test asserts.
package gendrv

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Backend is the minimal surface the driver needs. It is satisfied
// structurally by engine.Backend (via reo.Instance.Backend()) and by
// every Instance type emitted by reoc gen.
type Backend interface {
	Send(port string, v any) error
	Recv(port string) (any, error)
	SendBatch(port string, vs []any) (int, error)
	RecvBatch(port string, buf []any) (int, error)
	Ports(param string) []string
	Close() error
	Steps() int64
	GuardEvals() int64
	OpsRegistered() int64
}

// Result is one deterministic run's observable outcome: the value
// sequence moved through every boundary port (rendered with fmt.Sprint
// so arbitrary payload types compare across processes), plus the
// connector's step and guard-evaluation counters.
type Result struct {
	Connector  string              `json:"connector"`
	Seqs       map[string][]string `json:"seqs"`
	Steps      int64               `json:"steps"`
	GuardEvals int64               `json:"guard_evals"`
}

// Tag is the value sender i (0-based) moves in round r; receivers see
// these tags, so per-port sequences identify both origin and order.
func Tag(i, r int) int { return (i+1)*1000 + r }

// TestFilters returns the data filters the differential connectors
// reference, defined once here so the interpreted and generated runs
// register byte-identical functions.
func TestFilters() map[string]func(any) bool {
	return map[string]func(any) bool{
		"even": func(v any) bool { i, _ := v.(int); return i%2 == 0 },
	}
}

// TestXforms returns the data transformations the differential
// connectors reference. inc and double do not commute, so chained
// applications pin composition order as well as presence.
func TestXforms() map[string]func(any) any {
	return map[string]func(any) any{
		"double": func(v any) any { i, _ := v.(int); return i * 2 },
		"inc":    func(v any) any { i, _ := v.(int); return i + 1 },
	}
}

// waitRegistered spins until the backend has accepted at least k
// operations, sequencing op arrival without sleeping. The counter is
// monotonic, so an operation that registered and already completed
// still counts.
func waitRegistered(b Backend, k int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for b.OpsRegistered() < k {
		if time.Now().After(deadline) {
			return fmt.Errorf("gendrv: backend never reached %d registered operations (got %d)", k, b.OpsRegistered())
		}
		runtime.Gosched()
	}
	return nil
}

// Drive runs the deterministic schedule for a connector of the given
// kind (the connlib boundary shapes: "many2one", "one2many",
// "many2many", "clients", "receivers", "acqrel", "gated") at size n,
// moving `rounds` items per stream, and returns the observed per-port
// sequences. Drive closes the backend before returning.
func Drive(b Backend, kind string, n, rounds int) (*Result, error) {
	res := &Result{Seqs: make(map[string][]string)}
	defer b.Close()

	var (
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	record := func(port string, vals []any) {
		mu.Lock()
		seq := make([]string, len(vals))
		for i, v := range vals {
			seq[i] = fmt.Sprint(v)
		}
		res.Seqs[port] = seq
		mu.Unlock()
	}

	var sendWG, recvWG sync.WaitGroup
	// launchSenders registers one batched send per port of param, in
	// array order, each confirmed registered before the next launches.
	launchSenders := func(param string) error {
		for i, port := range b.Ports(param) {
			vs := make([]any, rounds)
			for r := range vs {
				vs[r] = Tag(i, r)
			}
			base := b.OpsRegistered()
			sendWG.Add(1)
			go func(port string, vs []any) {
				defer sendWG.Done()
				if _, err := b.SendBatch(port, vs); err != nil {
					fail(fmt.Errorf("send %s: %w", port, err))
					return
				}
				record(port, vs)
			}(port, vs)
			if err := waitRegistered(b, base+1); err != nil {
				return err
			}
		}
		return nil
	}
	// launchReceivers registers one batched receive of capacity `items`
	// per port of param, in array order. Streams the protocol routes
	// elsewhere (or consumes internally) leave a receiver's batch short;
	// the post-close partial count is part of the observed behavior, so
	// with allowShort the close-time error is recorded, not failed.
	launchReceivers := func(param string, items int, allowShort bool) error {
		for _, port := range b.Ports(param) {
			buf := make([]any, items)
			base := b.OpsRegistered()
			recvWG.Add(1)
			go func(port string, buf []any) {
				defer recvWG.Done()
				got, err := b.RecvBatch(port, buf)
				if err != nil && !allowShort {
					fail(fmt.Errorf("recv %s: %w", port, err))
					return
				}
				record(port, buf[:got])
			}(port, buf)
			if err := waitRegistered(b, base+1); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	switch kind {
	case "many2one":
		// Senders in array order, then one receiver sized for the whole
		// stream. Aggregating connectors (a discriminator emits one value
		// per round of inputs) deliver fewer than n*rounds, so once every
		// sender's batch completed, close releases the short receiver.
		if err = launchSenders("in"); err != nil {
			break
		}
		if err = launchReceivers("out", n*rounds, true); err != nil {
			break
		}
		sendWG.Wait()
		b.Close()
	case "one2many":
		// Receivers first (each sized for the worst case: a replicator
		// delivers every item to every receiver), then the one sender.
		// Router-style connectors split the stream, so receivers may end
		// short; Drive's close releases them.
		if err = launchReceivers("out", n*rounds, true); err != nil {
			break
		}
		vs := make([]any, n*rounds)
		for r := range vs {
			vs[r] = Tag(0, r)
		}
		if _, serr := b.SendBatch(b.Ports("in")[0], vs); serr != nil {
			err = fmt.Errorf("send in: %w", serr)
			break
		}
		record(b.Ports("in")[0], vs)
		b.Close() // release short receiver batches deterministically
	case "many2many":
		if err = launchSenders("a"); err != nil {
			break
		}
		err = launchReceivers("b", rounds, false)
	case "clients":
		err = launchSenders("c")
	case "receivers":
		err = launchReceivers("c", rounds, false)
	case "acqrel":
		// One client alternating acquire/release sends, sequentially on
		// the driving goroutine: fully deterministic without fan-out.
		acq, rel := b.Ports("acq")[0], b.Ports("rel")[0]
		var acqs, rels []any
		for r := 0; r < rounds; r++ {
			if serr := b.Send(acq, Tag(0, r)); serr != nil {
				err = fmt.Errorf("send %s: %w", acq, serr)
				break
			}
			acqs = append(acqs, Tag(0, r))
			if serr := b.Send(rel, Tag(1, r)); serr != nil {
				err = fmt.Errorf("send %s: %w", rel, serr)
				break
			}
			rels = append(rels, Tag(1, r))
		}
		record(acq, acqs)
		record(rel, rels)
	case "gated":
		// Valve-style: data lanes only; the control vertex stays idle,
		// leaving the valve in its initial (open) state.
		if err = launchSenders("a"); err != nil {
			break
		}
		err = launchReceivers("b", rounds, false)
	default:
		err = fmt.Errorf("gendrv: unknown connector kind %q", kind)
	}

	sendWG.Wait()
	recvWG.Wait()
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	res.Steps = b.Steps()
	res.GuardEvals = b.GuardEvals()
	return res, nil
}
