package main

import (
	"fmt"
	"time"

	reo "repro"
)

// laneSrc is the smallest connector that still fires: one buffered lane.
const laneSrc = `Lane(a;b) = Fifo1(a;b)`

type lane struct {
	inst *reo.Instance
	out  reo.Outport
	in   reo.Inport
	vals []any // the payload table the pumps cycle through
}

// connectLane compiles and connects one lane and warms it with a fixed
// number of items, so the timed phase starts at steady state.
func connectLane(seed int64, warm int, opts ...reo.ConnectOption) (*lane, error) {
	conn, err := compileOne(laneSrc, "Lane")
	if err != nil {
		return nil, err
	}
	inst, err := conn.Connect(nil, append([]reo.ConnectOption{reo.WithSeed(seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	l := &lane{inst: inst, out: inst.Outport("a"), in: inst.Inport("b"), vals: payload(seed)}
	if _, err := l.pump(warm, nil); err != nil {
		inst.Close()
		return nil, err
	}
	return l, nil
}

// pump alternates Send/Recv n times from one goroutine, cycling through
// the payload table, and returns how many echoes were wrong. The fault tap
// sits on the first echo only, to keep the loop body to the two port
// operations.
func (l *lane) pump(n int, f *fault) (bad int64, err error) {
	for i := 0; i < n; i++ {
		want := l.vals[i%payloadPeriod]
		if err := l.out.Send(want); err != nil {
			return bad, err
		}
		v, err := l.in.Recv()
		if err != nil {
			return bad, err
		}
		if i == 0 {
			v = f.tap(v)
		}
		if v != want {
			bad++
		}
	}
	return bad, nil
}

// pumpSampled is pump with one Send and one Recv in 64 recorded as spans.
func (l *lane) pumpSampled(n int, tr *tracer, parent int) (bad int64, err error) {
	for i := 0; i < n; i++ {
		want := l.vals[i%payloadPeriod]
		sample := i&63 == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		if err := l.out.Send(want); err != nil {
			return bad, err
		}
		var t1 time.Time
		if sample {
			tr.record(parent, "reo.Send", "", t0, time.Since(t0), 64)
			t1 = time.Now() // after the bookkeeping, so Recv does not pay for it
		}
		v, err := l.in.Recv()
		if err != nil {
			return bad, err
		}
		if sample {
			tr.record(parent, "reo.Recv", "", t1, time.Since(t1), 64)
		}
		if v != want {
			bad++
		}
	}
	return bad, nil
}

// pairsPerReading is how many Send+Recv pairs pumpTimed times with one pair
// of clock readings: a pair takes a third of a microsecond, a clock reading
// costs a tenth of that and steps in whole nanoseconds.
const pairsPerReading = 16

// pumpTimed is pump with the pairs timed, pairsPerReading at a time: the
// one-in-flight latency of the lane per pair, in µs.
func (l *lane) pumpTimed(n int, lat []float64) ([]float64, int64, error) {
	var bad int64
	for i := 0; i < n; i += pairsPerReading {
		t0 := time.Now()
		for j := i; j < i+pairsPerReading; j++ {
			want := l.vals[j%payloadPeriod]
			if err := l.out.Send(want); err != nil {
				return lat, bad, err
			}
			v, err := l.in.Recv()
			if err != nil {
				return lat, bad, err
			}
			if v != want {
				bad++
			}
		}
		lat = append(lat, float64(time.Since(t0))/1e3/pairsPerReading)
	}
	return lat, bad, nil
}

const fireWarm = 20000

func runFire(r *run) error {
	l, err := repeatSetup(r,
		func() (*lane, error) { return connectLane(r.seed, fireWarm) },
		func(l *lane) { l.inst.Close() })
	if err != nil {
		return err
	}
	defer l.inst.Close()

	// pump is one throughput segment's loop: plain, or with sampled spans.
	pump := func(n, parent int, f *fault) (int64, error) {
		if r.tr != nil {
			return l.pumpSampled(n, r.tr, parent)
		}
		return l.pump(n, f)
	}
	per := calibrate(20000, func(n int) time.Duration {
		t0 := time.Now()
		_, err = pump(n, -1, nil)
		return time.Since(t0)
	}, r.part(0.7))
	if err != nil {
		return fmt.Errorf("fire-steady: %w", err)
	}
	const latPerSeg = 20000 // pairs
	var rates, allocs []float64
	var segs [][]float64
	err = r.alternate(func(int) error {
		root := r.tr.begin(-1, "harness.throughput", r.workload)
		m0, s0, g0, t0 := mallocs(), l.inst.Steps(), l.inst.GuardEvals(), time.Now()
		bad, err := pump(per, root, r.fault)
		el, m1 := time.Since(t0), mallocs()
		r.tr.end(root, "steps", l.inst.Steps()-s0, "guard_evals", l.inst.GuardEvals()-g0)
		if err != nil {
			return err
		}
		r.count(int64(per), bad, "fire-steady: echo differs from the value sent")
		rates = append(rates, float64(l.inst.Steps()-s0)/el.Seconds())
		allocs = append(allocs, float64(m1-m0)/float64(per))
		return nil
	}, func(int) error {
		root := r.tr.begin(-1, "harness.latency", r.workload)
		lat, bad, err := l.pumpTimed(latPerSeg, make([]float64, 0, latPerSeg/pairsPerReading))
		r.tr.end(root)
		r.count(latPerSeg, bad, "fire-steady: echo differs from the value sent")
		segs = append(segs, lat)
		return err
	})
	if err != nil {
		return fmt.Errorf("fire-steady: %w", err)
	}
	r.report("steps_per_s", rates)
	r.report("ops_per_s", rates)
	r.reportAllocs(allocs)
	r.latencySummary(segs)
	return nil
}
