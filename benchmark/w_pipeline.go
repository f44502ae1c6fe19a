package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	reo "repro"
)

const pipelineStages = 8

// chainSrc writes a chain of stages Fifo1 buffers between a and b. Each
// buffer sits alone in a prod body, which keeps it a constituent of its
// own, so the region plan cuts every one of them: stages links, stages+1
// regions.
func chainSrc(stages int) string {
	var sb strings.Builder
	sb.WriteString("Chain(a;b) =\n")
	vertex := func(i int) string {
		switch i {
		case 0:
			return "a"
		case stages:
			return "b"
		}
		return fmt.Sprintf("m%d", i)
	}
	for i := 0; i < stages; i++ {
		if i > 0 {
			sb.WriteString("    mult ")
		} else {
			sb.WriteString("    ")
		}
		fmt.Fprintf(&sb, "prod (i:1..1) Fifo1(%s;%s)\n", vertex(i), vertex(i+1))
	}
	return sb.String()
}

// chain is a connected Fifo1 chain with one producer port and one consumer
// port.
type chain struct {
	inst *reo.Instance
	out  reo.Outport
	in   reo.Inport
	vals []any
}

const chainWarm = 4 * payloadPeriod

// connectChain compiles and connects a chain and warms it with a fixed
// number of items.
func connectChain(seed int64, stages int, opts ...reo.ConnectOption) (*chain, error) {
	conn, err := compileOne(chainSrc(stages), "Chain")
	if err != nil {
		return nil, err
	}
	inst, err := conn.Connect(nil, append([]reo.ConnectOption{reo.WithSeed(seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	c := &chain{inst: inst, out: inst.Outport("a"), in: inst.Inport("b"), vals: payload(seed)}
	if bad, _, err := c.stream(chainWarm, 1, nil); err != nil || bad > 0 {
		inst.Close()
		return nil, fmt.Errorf("chain warm-up: %d wrong items, err %v", bad, err)
	}
	return c, nil
}

// regionsOnSharedRuntime is the configuration of both pipeline workloads.
func regionsOnSharedRuntime() []reo.ConnectOption {
	return []reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil)}
}

// stream moves items values (a multiple of payloadPeriod) from a producer
// task to the consumer (the caller) in batches of k, checks FIFO order and
// the closed-form sum, and returns the number of wrong deliveries and the
// allocations made while the items moved (the tasks' own start-up — the
// goroutine, its channel, the receive buffer — happens before the count
// starts).
func (c *chain) stream(items, k int, f *fault) (bad int64, allocs uint64, err error) {
	perr := make(chan error, 1)
	chk := fifoCheck{vals: c.vals}
	buf := make([]any, k)
	go func() {
		for sent := 0; sent < items; sent += k {
			j := sent % payloadPeriod
			var err error
			if k == 1 {
				err = c.out.Send(c.vals[j])
			} else {
				err = c.out.SendBatch(c.vals[j : j+k])
			}
			if err != nil {
				perr <- err
				return
			}
		}
		perr <- nil
	}()
	m0 := mallocs()
	for got := 0; got < items; {
		if k == 1 {
			buf[0], err = c.in.Recv()
			if err != nil {
				break
			}
			if got == 0 {
				buf[0] = f.tap(buf[0])
			}
			chk.add(buf[0])
			got++
			continue
		}
		var m int
		m, err = c.in.RecvBatch(buf)
		if got == 0 && m > 0 {
			buf[0] = f.tap(buf[0])
		}
		for _, v := range buf[:m] {
			chk.add(v)
		}
		got += m
		if err != nil {
			break
		}
	}
	allocs = mallocs() - m0
	if err != nil {
		c.inst.Close() // unblock the producer
		<-perr
		return chk.bad, allocs, err
	}
	if err := <-perr; err != nil {
		return chk.bad, allocs, err
	}
	return chk.verify(items), allocs, nil
}

// oneInFlight times n trips of one batch of k from out to in: the producer
// task issues the send, the consumer's receive returns the batch, and only
// then is the next one released. abort unblocks the producer after a
// failed receive (it closes the instance). Latencies are in µs.
func oneInFlight(out reo.Outport, in reo.Inport, vals []any, n, k int, abort func()) (lat []float64, bad int64, err error) {
	var t0 atomic.Int64
	start := time.Now()
	release := make(chan int)
	perr := make(chan error, 1)
	go func() {
		for j := range release {
			t0.Store(int64(time.Since(start)))
			var err error
			if k == 1 {
				err = out.Send(vals[j])
			} else {
				err = out.SendBatch(vals[j : j+k])
			}
			if err != nil {
				perr <- err
				return
			}
		}
		perr <- nil
	}()
	lat = make([]float64, 0, n)
	buf := make([]any, k)
	for i := 0; i < n && err == nil; i++ {
		j := (i * k) % payloadPeriod
		select {
		case release <- j:
		case err = <-perr:
			continue
		}
		var m int
		if k == 1 {
			buf[0], err = in.Recv()
			m = 1
		} else {
			m, err = in.RecvBatch(buf)
		}
		if err != nil {
			break
		}
		lat = append(lat, float64(int64(time.Since(start))-t0.Load())/1e3)
		for x, v := range buf[:m] {
			if v != vals[j+x] {
				bad++
			}
		}
	}
	close(release)
	if err != nil {
		abort()
	}
	if perr2 := <-perr; err == nil {
		err = perr2
	}
	return lat, bad, err
}

// runPipeline is both pipeline workloads: the same connector, options and
// values, moved in batches of k.
func runPipeline(r *run, k, latPerSeg int) error {
	c, err := repeatSetup(r,
		func() (*chain, error) { return connectChain(r.seed, pipelineStages, regionsOnSharedRuntime()...) },
		func(c *chain) { c.inst.Close() })
	if err != nil {
		return err
	}
	defer c.inst.Close()

	// Throughput segments move a fixed item count; latency segments keep
	// one batch in flight, send issued -> far-end receive returned.
	per := calibrate(8*payloadPeriod, func(n int) time.Duration {
		t0 := time.Now()
		_, _, err = c.stream(n, k, nil)
		return time.Since(t0)
	}, r.part(0.6))
	if err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	per = max(per-per%payloadPeriod, payloadPeriod) // whole payload periods
	var rates, allocs []float64
	var segs [][]float64
	err = r.alternate(func(int) error {
		root := r.tr.begin(-1, "harness.throughput", r.workload)
		id := r.tr.begin(root, "reo.stream", "")
		s0, t0 := c.inst.Steps(), time.Now()
		bad, mallocs, err := c.stream(per, k, r.fault)
		el := time.Since(t0)
		r.tr.end(id, "items", int64(per))
		r.tr.end(root, "steps", c.inst.Steps()-s0)
		if err != nil {
			return err
		}
		r.count(int64(per), bad, r.workload+": sink saw items out of FIFO order or a wrong sum")
		rates = append(rates, float64(per)/el.Seconds())
		allocs = append(allocs, float64(mallocs)/float64(per))
		return nil
	}, func(int) error {
		root := r.tr.begin(-1, "harness.latency", r.workload)
		lat, bad, err := oneInFlight(c.out, c.in, c.vals, latPerSeg, k, func() { c.inst.Close() })
		r.tr.end(root)
		r.count(int64(latPerSeg*k), bad, r.workload+": one-in-flight item differs from the value sent")
		segs = append(segs, lat)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	r.report("items_per_s", rates)
	r.report("ops_per_s", rates)
	r.reportAllocs(allocs)
	r.latencySummary(segs)
	return nil
}

func runBatch(r *run) error  { return runPipeline(r, 64, 2000) }
func runScalar(r *run) error { return runPipeline(r, 1, 5000) }
