package main

import (
	"fmt"
	"runtime"
	"time"

	reo "repro"
)

// dispatch measures the firing path alone on the fire-steady lane: a fixed
// number of Send/Recv pairs from one goroutine, untraced and traced in
// turn. The untraced passes give ns/step; the traced passes give the
// sampled Send and Recv costs; their ratio is the tracing overhead.
func (p *probes) dispatch() error {
	l, err := connectLane(p.seed, fireWarm)
	if err != nil {
		return fmt.Errorf("dispatch probe: %w", err)
	}
	defer l.inst.Close()
	pairs := p.scaled(100000)
	root := p.tr.begin(-1, "harness.dispatch", "")
	defer p.tr.end(root)
	from := p.tr.mark()
	for rep := 0; rep < p.reps(); rep++ {
		m0, s0, g0, t0 := mallocs(), l.inst.Steps(), l.inst.GuardEvals(), time.Now()
		bad, err := l.pump(pairs, p.fault)
		el, m1 := time.Since(t0), mallocs()
		if err != nil {
			return fmt.Errorf("dispatch probe: %w", err)
		}
		steps := l.inst.Steps() - s0
		p.count(int64(pairs), bad, "dispatch probe: echo differs from the value sent")
		p.add("engine.steps.fire", float64(steps))
		p.add("engine.ns_per_step.fire", float64(el)/float64(steps))
		p.add("engine.guard_evals_per_step.fire", float64(l.inst.GuardEvals()-g0)/float64(steps))
		p.add("allocs_per_op.fire", round2(float64(m1-m0)/float64(pairs)))

		id := p.tr.begin(root, "harness.pump_sampled", "")
		t0 = time.Now()
		bad, err = l.pumpSampled(pairs, p.tr, id)
		traced := time.Since(t0)
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("dispatch probe: %w", err)
		}
		p.count(int64(pairs), bad, "dispatch probe: echo differs from the value sent")
		p.add("trace.overhead_share", 1-float64(el)/float64(traced))
	}
	p.add("engine.send_ns", p.tr.spanDurations("reo.Send", from)...)
	p.add("engine.recv_ns", p.tr.spanDurations("reo.Recv", from)...)
	return nil
}

// sweep is fig12-sweep at a fraction of its budget, for the dispatch
// numbers that depend on N: ns per step and guard evaluations per step in
// the free-running windows, and the run-time expansions at N = 32.
func (p *probes) sweep() error {
	conns, err := compileAll()
	if err != nil {
		return err
	}
	cells := sweepCells(p.run, conns, fig12Ns)
	window := p.budget / 4 / time.Duration(len(cells))
	nsPerStep := make(map[int][]float64)
	var guards []float64
	var expansions int64
	for _, c := range cells {
		root := p.tr.begin(-1, "harness.cell", c.String())
		d, err := driveCell(p.run, c, root, window/5, window)
		p.tr.end(root)
		if err != nil || d.steps <= 0 {
			p.count(1, 1, fmt.Sprintf("sweep probe: %s fired no step (%v)", c, err))
			continue
		}
		p.count(1, 0, "")
		nsPerStep[c.n] = append(nsPerStep[c.n], float64(d.elapsed)/float64(d.steps))
		guards = append(guards, float64(d.guards)/float64(d.steps))
		if c.n == 32 {
			expansions += d.expansions
		}
	}
	for _, n := range fig12Ns {
		if len(nsPerStep[n]) == 0 {
			return fmt.Errorf("sweep probe: no cell ran at N = %d", n)
		}
		p.add(fmt.Sprintf("engine.ns_per_step.fig12_n%d", n), geomean(nsPerStep[n]))
	}
	p.add("engine.guard_evals_per_step.fig12", geomean(guards))
	p.add("engine.expansions.fig12_n32", float64(expansions))
	return nil
}

// expansion connects every connector at N = 64 and sends one round through
// it: the time from Connect returning to the first delivery is the cold
// JIT expansion the first item pays.
func (p *probes) expansion() error {
	conns, err := compileAll()
	if err != nil {
		return err
	}
	var first []float64
	var expansions int64
	for _, c := range sweepCells(p.run, conns, []int{64}) {
		root := p.tr.begin(-1, "harness.cell", c.String())
		inst, err := c.conn.Connect(c.def.Lengths(c.n), reo.WithSeed(p.seed))
		if err != nil {
			p.tr.end(root)
			p.count(1, 1, fmt.Sprintf("expansion probe: %s: Connect: %v", c, err))
			continue
		}
		id := p.tr.begin(root, "oracle.check", c.String())
		chk := runChecked(c.def, inst, c.n, 1, 0, p.fault, false)
		p.tr.end(id, "expansions", inst.Expansions())
		p.tr.end(root)
		p.count(chk.attempted, chk.failed, chk.why)
		expansions += inst.Expansions()
		if chk.failed == 0 {
			first = append(first, us(chk.first))
		}
	}
	if len(first) == 0 {
		return fmt.Errorf("expansion probe: no connector delivered at N = 64")
	}
	p.add("engine.first_step_us.n64", geomean(first))
	p.add("engine.expansions.instantiate_n64", float64(expansions))
	return nil
}

// links measures what one region link costs an item: the per-item time of
// a Fifo1 chain grows linearly with its stages, so the slope from 2 to 8
// stages is the cost of one crossing — scalar one-in-flight on the
// synchronous path, and streaming in batches of 64. The same chains give
// the scheduler's share: the 8-stage transit on the synchronous path
// against the shared runtime.
func (p *probes) links() error {
	sync := []reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(0)}
	trips, items := p.scaled(4000), max(p.scaled(64), 1)*payloadPeriod
	root := p.tr.begin(-1, "harness.links", "")
	defer p.tr.end(root)

	// transit returns the median one-in-flight latency (µs) of a chain.
	transit := func(stages int, opts []reo.ConnectOption) (float64, error) {
		c, err := connectChain(p.seed, stages, opts...)
		if err != nil {
			return 0, err
		}
		defer c.inst.Close()
		id := p.tr.begin(root, "reo.stream", fmt.Sprintf("transit/%d", stages))
		lat, bad, err := oneInFlight(c.out, c.in, c.vals, trips, 1, func() { c.inst.Close() })
		p.tr.end(id)
		p.count(int64(trips), bad, "links probe: one-in-flight item differs from the value sent")
		return median(lat), err
	}
	// perItem returns the streaming time per item (ns) of a chain, its
	// steps and its allocations per item.
	perItem := func(stages, k int, opts []reo.ConnectOption) (ns float64, steps int64, allocs float64, err error) {
		c, err := connectChain(p.seed, stages, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		defer c.inst.Close()
		s0 := c.inst.Steps()
		id := p.tr.begin(root, "reo.stream", fmt.Sprintf("stream/%d/k%d", stages, k))
		t0 := time.Now()
		bad, m, err := c.stream(items, k, p.fault)
		el := time.Since(t0)
		p.tr.end(id, "items", int64(items))
		p.count(int64(items), bad, "links probe: sink saw items out of FIFO order or a wrong sum")
		return float64(el) / float64(items), c.inst.Steps() - s0, float64(m) / float64(items), err
	}

	for rep := 0; rep < p.reps(); rep++ {
		t2, err := transit(2, sync)
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		t8, err := transit(pipelineStages, sync)
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		shared, err := transit(pipelineStages, regionsOnSharedRuntime())
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		p.add("link.ns_per_crossing", (t8-t2)*1e3/(pipelineStages-2))
		p.add("runtime.transit_us.sync", t8)
		p.add("runtime.transit_us.shared", shared)
		p.add("runtime.handoff_us", shared-t8)

		b2, _, _, err := perItem(2, 64, sync)
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		b8, _, _, err := perItem(pipelineStages, 64, sync)
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		p.add("link.ns_per_crossing.batch64", (b8-b2)/(pipelineStages-2))

		// The pipeline workloads' own configuration, for the numbers that
		// must repeat exactly: steps for the fixed item count, and the
		// allocations per item the repo pins at 0.
		_, _, allocB, err := perItem(pipelineStages, 64, regionsOnSharedRuntime())
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		_, steps, allocS, err := perItem(pipelineStages, 1, regionsOnSharedRuntime())
		if err != nil {
			return fmt.Errorf("links probe: %w", err)
		}
		p.add("engine.steps.pipeline", float64(steps))
		p.add("allocs_per_op.batch64", round2(allocB))
		p.add("allocs_per_op.scalar", round2(allocS))
	}
	p.add("runtime.workers", float64(reo.DefaultRuntime().Workers()))
	return nil
}

// pool measures the reo API around an instance's life on the serving
// configuration (regions on the shared runtime): a fresh Connect, a
// recycled one, Close, whole churn cycles, and what a live instance keeps
// on the heap.
func (p *probes) pool() error {
	conn, err := compileOne(laneSrc, "Lane")
	if err != nil {
		return err
	}
	root := p.tr.begin(-1, "harness.pool", "")
	defer p.tr.end(root)
	serving := regionsOnSharedRuntime()
	reusing := append(regionsOnSharedRuntime(), reo.WithReuse(true))
	vals := payload(p.seed)

	// cycle is Connect -> one item end to end -> Close, as spans of tr.
	cycle := func(tr *tracer, opts []reo.ConnectOption, i int) (connect, closing time.Duration, err error) {
		var inst *reo.Instance
		connect = timedSpan(tr, root, "reo.Connect", "", func() { inst, err = conn.Connect(nil, opts...) })
		if err != nil {
			return
		}
		want := vals[i%payloadPeriod]
		if err = inst.Outport("a").Send(want); err == nil {
			var v any
			if v, err = inst.Inport("b").Recv(); err == nil && v != want {
				p.count(1, 1, "pool probe: echo differs from the value sent")
			} else {
				p.count(1, 0, "")
			}
		}
		closing = timedSpan(tr, root, "reo.Close", "", func() { inst.Close() })
		return
	}
	cycles := p.scaled(300)
	var fresh, reused, closing []float64
	for i := 0; i < cycles; i++ {
		c, _, err := cycle(p.tr, serving, i)
		if err != nil {
			return fmt.Errorf("pool probe: %w", err)
		}
		fresh = append(fresh, us(c))
	}
	for i := 0; i <= cycles; i++ {
		c, cl, err := cycle(p.tr, reusing, i)
		if err != nil {
			return fmt.Errorf("pool probe: %w", err)
		}
		if i > 0 { // the first reusing Connect builds what the rest recycle
			reused = append(reused, us(c))
			closing = append(closing, us(cl))
		}
	}
	p.add("reo.connect_fresh_us", fresh...)
	p.add("reo.connect_reused_us", reused...)
	p.add("reo.close_us", closing...)

	// Churn at full speed, without spans.
	churn := p.scaled(5000)
	for rep := 0; rep < p.reps() && err == nil; rep++ {
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < churn && err == nil; i++ {
			_, _, err = cycle(nil, reusing, i)
		}
		el, m1 := time.Since(t0), mallocs()
		p.add("reo.churn_cycles_per_s", float64(churn)/el.Seconds())
		p.add("reo.churn_allocs_per_cycle", float64(m1-m0)/float64(churn))
	}
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}

	// Heap held per live instance, 10 k live.
	live := p.scaled(10000)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	insts := make([]*reo.Instance, 0, live)
	id := p.tr.begin(root, "reo.Connect", "live")
	for i := 0; i < live && err == nil; i++ {
		var inst *reo.Instance
		if inst, err = conn.Connect(nil, serving...); err == nil {
			insts = append(insts, inst)
		}
	}
	p.tr.end(id)
	h1 := heap()
	for _, inst := range insts {
		inst.Close()
	}
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	p.add("reo.heap_kb_per_instance", float64(h1-h0)/1024/float64(live))
	return nil
}
