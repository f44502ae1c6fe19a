package connlib

import (
	"sync"
	"time"

	reo "repro"
)

// Drive spawns the benchmark driver tasks for the connector: every task
// sends or receives in a tight loop ("every task just tried to send and
// receive as often as possible", §V-B) until the instance closes. The
// returned function waits for all tasks to exit; close the instance first.
func Drive(d Def, inst *reo.Instance, n int) (wait func()) {
	return DriveBatched(d, inst, n, 1)
}

// StepsIn is the Fig. 12 measurement: it connects d at n with opts,
// drives it (Drive) for the window, and returns the global steps fired in
// it, closing the instance and waiting for its tasks before it returns. A
// Connect error — ErrTooLarge when the existing approach's static product
// does not fit — is returned as is.
func StepsIn(d Def, n int, window time.Duration, opts ...reo.ConnectOption) (int64, error) {
	inst, err := d.Connect(n, opts...)
	if err != nil {
		return 0, err
	}
	wait := Drive(d, inst, n)
	time.Sleep(window)
	steps := inst.Steps()
	inst.Close()
	wait()
	return steps, nil
}

// DriveBatched is Drive with a batching degree: every plain sender and
// receiver task moves items through its port in batches of the given
// size (SendBatch/RecvBatch over a per-task reused slice, so the steady
// state allocates nothing), amortizing one registration handshake over
// the batch. batch <= 1 selects the scalar operations — the k=1 case of
// the same engine path. Control-structured tasks (AcquireRelease's
// lock/unlock alternation, the GatedManyToMany valve) stay scalar: their
// protocol alternates ports per item, which is exactly the access
// pattern batching cannot help.
func DriveBatched(d Def, inst *reo.Instance, n, batch int) (wait func()) {
	var wg sync.WaitGroup
	sender := func(out reo.Outport) {
		defer wg.Done()
		if batch <= 1 {
			for i := 0; ; i++ {
				if err := out.Send(i); err != nil {
					return
				}
			}
		}
		vs := make([]any, batch)
		for i := 0; ; {
			for j := range vs {
				vs[j] = i
				i++
			}
			if err := out.SendBatch(vs); err != nil {
				return
			}
		}
	}
	receiver := func(in reo.Inport) {
		defer wg.Done()
		if batch <= 1 {
			for {
				if _, err := in.Recv(); err != nil {
					return
				}
			}
		}
		buf := make([]any, batch)
		for {
			if _, err := in.RecvBatch(buf); err != nil {
				return
			}
		}
	}
	spawnSenders := func(param string) {
		for _, p := range inst.Outports(param) {
			wg.Add(1)
			go sender(p)
		}
	}
	spawnReceivers := func(param string) {
		for _, p := range inst.Inports(param) {
			wg.Add(1)
			go receiver(p)
		}
	}

	switch d.Kind {
	case ManyToOne:
		spawnSenders("in")
		spawnReceivers("out")
	case OneToMany:
		spawnSenders("in")
		spawnReceivers("out")
	case ManyToMany:
		spawnSenders("a")
		spawnReceivers("b")
	case ClientsOnly:
		spawnSenders("c")
	case ReceiversOnly:
		spawnReceivers("c")
	case AcquireRelease:
		acq := inst.Outports("acq")
		rel := inst.Outports("rel")
		for i := range acq {
			wg.Add(1)
			go func(a, r reo.Outport) {
				defer wg.Done()
				for k := 0; ; k++ {
					if err := a.Send(k); err != nil {
						return
					}
					if err := r.Send(k); err != nil {
						return
					}
				}
			}(acq[i], rel[i])
		}
	case GatedManyToMany:
		spawnSenders("a")
		spawnReceivers("b")
		// The control task toggles the valve; two sends in a row
		// return it to the open state so data keeps flowing.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctl := inst.Outport("ctl")
			for {
				if err := ctl.Send(0); err != nil {
					return
				}
				if err := ctl.Send(1); err != nil {
					return
				}
			}
		}()
	}
	return wg.Wait
}
