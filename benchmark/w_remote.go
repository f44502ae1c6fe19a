package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	reo "repro"
	"repro/internal/ca"
)

// remoteLanesSrc: each lane is a Sync region feeding a cut Fifo1 into an
// out-node region — one region link per lane, no coupling between lanes.
const remoteLanesSrc = `
RemoteLanes(in[];out[]) =
    prod (i:1..#in) Sync(in[i];t[i])
    mult prod (i:1..#in) Fifo1(t[i];out[i])
`

const remoteLanes = 4

// pair is the lane connector split across two instances in this process,
// joined by real loopback sockets: the in-side regions on node a, the
// out-side regions on node b, so every lane's link crosses the wire.
type pair struct {
	a, b   *reo.Instance
	ins    []reo.Outport
	outs   []reo.Inport
	vals   []any
	isBulk bool // vals are byte slices, compared by content
}

func (p *pair) close() {
	p.a.Close()
	p.b.Close()
}

// bulk switches the pair's payload table to 1 KiB byte slices, each with
// its own seeded content.
func (p *pair) bulk(seed int64) {
	for i := range p.vals {
		b := make([]byte, bulkSize)
		for j := range b {
			b[j] = byte(int(seed) + i + j)
		}
		p.vals[i] = b
	}
	p.isBulk = true
}

// connectMemLanes connects the lane connector in one process on the
// in-memory transport: the same regions and links, no sockets.
func connectMemLanes(seed int64, lanes int) (*pair, error) {
	conn, err := compileOne(remoteLanesSrc, "RemoteLanes")
	if err != nil {
		return nil, err
	}
	inst, err := conn.Connect(map[string]int{"in": lanes, "out": lanes},
		reo.WithSeed(seed), reo.WithPartitioning(reo.PartitionRegions))
	if err != nil {
		return nil, err
	}
	return &pair{a: inst, b: inst, ins: inst.Outports("in"), outs: inst.Inports("out"), vals: payload(seed)}, nil
}

// connectPair compiles the lane connector, plans its regions, places them
// on two nodes and connects both over 127.0.0.1 (one peer pair).
func connectPair(seed int64, lanes int) (*pair, error) {
	conn, err := compileOne(remoteLanesSrc, "RemoteLanes")
	if err != nil {
		return nil, err
	}
	lengths := map[string]int{"in": lanes, "out": lanes}
	asm, err := conn.Template().Instantiate(lengths)
	if err != nil {
		return nil, err
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	owner := plan.PortRegions(asm.U, asm.Auts)
	regions := map[string][]int{}
	assigned := make([]bool, len(plan.Regions))
	assign := func(ports []ca.PortID, node string) {
		for _, p := range ports {
			if ri := owner[p]; ri >= 0 && !assigned[ri] {
				assigned[ri] = true
				regions[node] = append(regions[node], ri)
			}
		}
	}
	assign(asm.Tails["in"], "a")
	assign(asm.Heads["out"], "b")
	for ri, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("region %d has no boundary port to place it by", ri)
		}
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return nil, err
	}
	nodes := map[string]string{"a": lnA.Addr().String(), "b": lnB.Addr().String()}
	connect := func(node string, ln net.Listener) (*reo.Instance, error) {
		return conn.Connect(lengths,
			reo.WithSeed(seed),
			reo.WithPartitioning(reo.PartitionRegions),
			reo.WithRemoteRegions(&reo.RemoteTopology{Node: node, Nodes: nodes, Regions: regions, Listener: ln}))
	}
	var wg sync.WaitGroup
	var a, b *reo.Instance
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); a, errA = connect("a", lnA) }()
	go func() { defer wg.Done(); b, errB = connect("b", lnB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		if a != nil {
			a.Close()
		}
		if b != nil {
			b.Close()
		}
		if errA == nil {
			errA = errB
		}
		return nil, errA
	}
	return &pair{a: a, b: b, ins: a.Outports("in"), outs: b.Inports("out"), vals: payload(seed)}, nil
}

// stream moves perLane values down every lane at once — one sending and
// one receiving task per lane, scalar operations — and returns the wrong
// deliveries, the allocations while the items moved and the elapsed time.
func (p *pair) stream(perLane int, f *fault) (bad int64, allocs uint64, el time.Duration, err error) {
	lanes := len(p.ins)
	errs := make([]error, 2*lanes)
	bads := make([]int64, lanes)
	var wg sync.WaitGroup
	wg.Add(2 * lanes)
	// The tasks wait at a gate so that starting them (goroutines, closures)
	// is not counted as allocation of the items' path.
	gate := make(chan struct{})
	for l := 0; l < lanes; l++ {
		go func(l int) {
			defer wg.Done()
			<-gate
			for i := 0; i < perLane; i++ {
				if err := p.ins[l].Send(p.vals[i%payloadPeriod]); err != nil {
					errs[l] = err
					return
				}
			}
		}(l)
		go func(l int) {
			defer wg.Done()
			chk := fifoCheck{vals: p.vals}
			<-gate
			for i := 0; i < perLane; i++ {
				v, err := p.outs[l].Recv()
				if err != nil {
					errs[lanes+l] = err
					p.close() // unblock the senders
					break
				}
				if i == 0 && l == 0 {
					v = f.tap(v)
				}
				if p.isBulk {
					got, _ := v.([]byte)
					if !bytes.Equal(got, p.vals[i%payloadPeriod].([]byte)) {
						bads[l]++
					}
					continue
				}
				chk.add(v)
			}
			if !p.isBulk {
				bads[l] = chk.verify(perLane)
			}
		}(l)
	}
	m0, t0 := mallocs(), time.Now()
	close(gate)
	wg.Wait()
	el, allocs = time.Since(t0), mallocs()-m0
	for _, e := range errs {
		if e != nil {
			err = e
		}
	}
	for _, b := range bads {
		bad += b
	}
	return bad, allocs, el, err
}

// remoteWarm is the set-up's fixed-length warm-up per lane: long enough
// that the sockets' and pumps' start-up is behind.
const remoteWarm = 16 * payloadPeriod

func runRemote(r *run) error {
	p, err := repeatSetup(r, func() (*pair, error) {
		p, err := connectPair(r.seed, remoteLanes)
		if err != nil {
			return nil, err
		}
		if bad, _, _, err := p.stream(remoteWarm, nil); err != nil || bad > 0 {
			p.close()
			return nil, fmt.Errorf("warm-up: %d wrong items, err %v", bad, err)
		}
		return p, nil
	}, func(p *pair) { p.close() })
	if err != nil {
		return err
	}
	defer p.close()

	// Throughput segments stream a fixed item count down all four lanes;
	// latency segments keep one item in flight on lane 0, send issued on
	// node a -> receive returned on node b.
	per := calibrate(2*payloadPeriod, func(n int) time.Duration {
		var el time.Duration
		_, _, el, err = p.stream(n, nil)
		return el
	}, r.part(0.6))
	if err != nil {
		return fmt.Errorf("remote-tcp: %w", err)
	}
	const latPerSeg = 3000
	var rates, allocs []float64
	var segs [][]float64
	err = r.alternate(func(int) error {
		root := r.tr.begin(-1, "harness.throughput", r.workload)
		id := r.tr.begin(root, "reo.stream", "")
		s0 := p.a.Steps() + p.b.Steps()
		bad, mallocs, el, err := p.stream(per, r.fault)
		items := int64(per * remoteLanes)
		r.tr.end(id, "items", items)
		r.tr.end(root, "steps", p.a.Steps()+p.b.Steps()-s0)
		if err != nil {
			return err
		}
		r.count(items, bad, "remote-tcp: a lane's sink saw items out of FIFO order or a wrong sum")
		rates = append(rates, float64(items)/el.Seconds())
		allocs = append(allocs, float64(mallocs)/float64(items))
		return nil
	}, func(int) error {
		root := r.tr.begin(-1, "harness.latency", r.workload)
		lat, bad, err := oneInFlight(p.ins[0], p.outs[0], p.vals, latPerSeg, 1, p.close)
		r.tr.end(root)
		r.count(latPerSeg, bad, "remote-tcp: one-in-flight item differs from the value sent")
		segs = append(segs, lat)
		return err
	})
	if err != nil {
		return fmt.Errorf("remote-tcp: %w", err)
	}
	r.report("items_per_s", rates)
	r.report("ops_per_s", rates)
	r.reportAllocs(allocs)
	r.latencySummary(segs)
	return nil
}
