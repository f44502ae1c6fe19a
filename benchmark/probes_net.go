package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	reo "repro"
	"repro/internal/gen"
	"repro/internal/genlib/fabric"
	"repro/internal/npb"
	"repro/internal/wire"
)

const bulkSize = 1024

// wire times the frame codec alone, against in-memory buffers: one data
// frame with a small int, one with a 1 KiB byte slice, and one batch frame
// multiplexing four links' bursts.
func (p *probes) wire() error {
	bulk := make([]byte, bulkSize)
	for i := range bulk {
		bulk[i] = byte(int(p.seed) + i)
	}
	batch := &wire.Frame{Type: wire.FrameDataBatch}
	for l := uint32(0); l < 4; l++ {
		b := batch.NextBurst(l, 7)
		b.Vals = append(b.Vals, int(l))
	}
	frames := map[string]*wire.Frame{
		"int":    {Type: wire.FrameData, Link: 3, Seq: 7, Vals: []any{42}},
		"bulk1k": {Type: wire.FrameData, Link: 3, Seq: 7, Vals: []any{bulk}},
		"batch4": batch,
	}
	root := p.tr.begin(-1, "harness.wire", "")
	defer p.tr.end(root)
	n := p.scaled(20000)
	for _, kind := range []string{"int", "bulk1k", "batch4"} {
		f := frames[kind]
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		size := buf.Len()
		p.add("wire.bytes_per_frame."+kind, float64(size))
		// n encoded frames back to back, to read from.
		stream := bytes.Repeat(buf.Bytes(), n)
		var into wire.Frame
		var scratch []byte
		for rep := 0; rep < p.reps(); rep++ {
			buf.Reset()
			buf.Grow(n * size)
			var err error
			m0 := mallocs()
			w := p.timed(root, "wire.WriteFrame", kind, func() {
				for i := 0; i < n && err == nil; i++ {
					err = wire.WriteFrame(&buf, f)
				}
			})
			if err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
			rd := bytes.NewReader(stream)
			r := p.timed(root, "wire.ReadFrameInto", kind, func() {
				for i := 0; i < n && err == nil; i++ {
					err = wire.ReadFrameInto(rd, &into, &scratch)
				}
			})
			m2 := mallocs()
			if err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
			p.add("wire.write_ns."+kind, float64(w)/float64(n))
			p.add("wire.read_ns."+kind, float64(r)/float64(n))
			if kind == "int" {
				p.add("wire.allocs_per_frame", round2(float64(m2-m0)/float64(2*n)))
			}
		}
		// The oracle: the last frame read back equals the frame written.
		ok := into.Type == f.Type && len(into.Vals) == len(f.Vals) && len(into.Bursts) == len(f.Bursts)
		if ok && kind == "int" {
			ok = into.Vals[0] == f.Vals[0]
		}
		if ok && kind == "bulk1k" {
			got, isBytes := into.Vals[0].([]byte)
			ok = isBytes && bytes.Equal(got, bulk)
		}
		if ok && kind == "batch4" {
			for l := range f.Bursts {
				ok = ok && into.Bursts[l].Link == f.Bursts[l].Link && into.Bursts[l].Vals[0] == f.Bursts[l].Vals[0]
			}
		}
		if ok {
			p.count(1, 0, "")
		} else {
			p.count(1, 1, "wire probe: "+kind+" frame read back differs from the frame written")
		}
	}
	return nil
}

// tcp measures the region-link transport: the lane connector over real
// loopback sockets at one and four lanes (how far independent links
// overlap their round trips), with 1 KiB payloads, and the same connector
// in one process on the in-memory transport.
func (p *probes) tcp() error {
	root := p.tr.begin(-1, "harness.tcp", "")
	defer p.tr.end(root)
	perLane := max(p.scaled(6), 1) * payloadPeriod

	rate := func(pr *pair, cellName string) (float64, float64, error) {
		id := p.tr.begin(root, "reo.stream", cellName)
		bad, allocs, el, err := pr.stream(perLane, p.fault)
		items := int64(perLane * len(pr.ins))
		p.tr.end(id, "items", items)
		p.count(items, bad, "tcp probe: a lane's sink saw wrong items")
		return float64(items) / el.Seconds(), float64(allocs) / float64(items), err
	}
	overTCP := func(lanes int, cellName string, bulk bool) (float64, float64, error) {
		var pr *pair
		var err error
		d := p.timed(root, "reo.Connect", cellName, func() { pr, err = connectPair(p.seed, lanes) })
		if err != nil {
			return 0, 0, err
		}
		defer pr.close()
		p.add("tcp.pair_connect_ms", ms(d))
		if bulk {
			pr.bulk(p.seed)
		}
		if _, _, _, err := pr.stream(payloadPeriod, nil); err != nil {
			return 0, 0, err
		}
		return rate(pr, cellName)
	}

	for rep := 0; rep < min(p.reps(), 3); rep++ {
		l1, _, err := overTCP(1, "tcp/lanes1", false)
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		l4, allocs, err := overTCP(remoteLanes, "tcp/lanes4", false)
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		b4, _, err := overTCP(remoteLanes, "tcp/bulk1k_lanes4", true)
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		p.add("tcp.items_per_s.lanes1", l1)
		p.add("tcp.items_per_s.lanes4", l4)
		p.add("tcp.items_per_s.bulk1k_lanes4", b4)
		p.add("tcp.lane_overlap", l4/l1)
		p.add("allocs_per_op.tcp_lanes4", round2(allocs))

		mem, err := connectMemLanes(p.seed, remoteLanes)
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		m4, _, err := rate(mem, "mem/lanes4")
		mem.close()
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		p.add("mem.items_per_s.lanes4", m4)
	}
	return nil
}

// gen measures the parametric code generator and its runtime against the
// interpreted engine on the same connector: the Fabric of n independent
// lanes, fired round-robin from one goroutine.
func (p *probes) gen() error {
	src, err := os.ReadFile(filepath.Join(p.root, "internal", "genlib", "fabric.reo"))
	if err != nil {
		return fmt.Errorf("gen probe: %w", err)
	}
	root := p.tr.begin(-1, "harness.gen", "")
	defer p.tr.end(root)
	for rep := 0; rep < min(p.reps(), 3); rep++ {
		var g *gen.Generated
		d := p.timed(root, "gen.GenerateParametric", "Fabric", func() {
			g, err = gen.GenerateParametric(string(src), gen.Config{Connector: "Fabric", Package: "fabric"})
		})
		if err != nil {
			return fmt.Errorf("gen probe: %w", err)
		}
		p.add("gen.generate_parametric_ms", ms(d))
		p.add("gen.emitted_bytes", float64(len(g.File)))
		p.add("gen.templates", float64(g.Templates))
	}

	const n = 16
	rounds := p.scaled(4000)
	vals := payload(p.seed)
	// fire moves one value down each of the n lanes, rounds times, and
	// returns ns per connector step.
	fire := func(send func(i int, v any) error, recv func(i int) (any, error), steps func() int64) (float64, error) {
		var bad int64
		s0, t0 := steps(), time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				want := vals[(r+i)%payloadPeriod]
				if err := send(i, want); err != nil {
					return 0, err
				}
				v, err := recv(i)
				if err != nil {
					return 0, err
				}
				if v != want {
					bad++
				}
			}
		}
		el := time.Since(t0)
		p.count(int64(rounds*n), bad, "gen probe: a lane returned a different value")
		return float64(el) / float64(steps()-s0), nil
	}

	conn, err := compileOne(string(src), "Fabric")
	if err != nil {
		return fmt.Errorf("gen probe: %w", err)
	}
	for rep := 0; rep < p.reps(); rep++ {
		var gi *fabric.Instance
		d := p.timed(root, "genrun.New", "n16", func() { gi, err = fabric.New(n, fabric.WithSeed(p.seed)) })
		if err != nil {
			return fmt.Errorf("gen probe: %w", err)
		}
		p.add("genrun.new_us.n16", us(d))
		as, bs := gi.Ports("a"), gi.Ports("b")
		id := p.tr.begin(root, "genrun.fire", "n16")
		genNS, err := fire(
			func(i int, v any) error { return gi.Send(as[i], v) },
			func(i int) (any, error) { return gi.Recv(bs[i]) },
			gi.Steps)
		p.tr.end(id)
		gi.Close()
		if err != nil {
			return fmt.Errorf("gen probe: generated fabric: %w", err)
		}

		// The interpreted twin: same source, same regions, same loop.
		inst, err := conn.Connect(map[string]int{"a": n, "b": n}, reo.WithSeed(p.seed), reo.WithPartitioning(reo.PartitionRegions))
		if err != nil {
			return fmt.Errorf("gen probe: %w", err)
		}
		outs, ins := inst.Outports("a"), inst.Inports("b")
		id = p.tr.begin(root, "engine.fire", "n16")
		engNS, err := fire(
			func(i int, v any) error { return outs[i].Send(v) },
			func(i int) (any, error) { return ins[i].Recv() },
			inst.Steps)
		p.tr.end(id)
		inst.Close()
		if err != nil {
			return fmt.Errorf("gen probe: interpreted fabric: %w", err)
		}
		p.add("gen.ns_per_step.fabric_n16", genNS)
		p.add("engine.ns_per_step.fabric_n16", engNS)
		p.add("gen.speedup.fabric_n16", engNS/genNS)
	}
	return nil
}

// npb runs every kernel of the npb workload once per variant — the Reo
// fabric, hand-written channels (Fig. 13's comparison) and the generated
// fabric — after the serial references the verification needs.
func (p *probes) npb() error {
	ks, err := npbSet(p.quick)
	if err != nil {
		return err
	}
	for _, k := range ks {
		if _, err := k.prog.Run(k.class, npb.Serial, 0); err != nil {
			return fmt.Errorf("npb probe: serial reference %s-%s: %w", k.name, k.class, err)
		}
	}
	root := p.tr.begin(-1, "harness.npb", "")
	defer p.tr.end(root)
	var ratios []float64
	for _, k := range ks {
		walls := make(map[npb.Variant]float64)
		variants := []npb.Variant{npb.Reo, npb.Orig, npb.Gen}
		if k.name == "LU" {
			variants = variants[:2] // see the registry
		}
		for _, v := range variants {
			// Best of two: the first run of a variant pays its fabric's
			// one-time compile.
			best := math.Inf(1)
			var steps int64
			for rep := 0; rep < min(p.reps(), 2); rep++ {
				w, s, err := runKernel(p.run, k, v, root)
				if err != nil {
					return err
				}
				best, steps = math.Min(best, ms(w)), s
			}
			walls[v] = best
			if v == npb.Reo {
				p.add("npb."+k.name+".steps", float64(steps))
			}
		}
		p.add("npb."+k.name+".reo_ms", walls[npb.Reo])
		p.add("npb."+k.name+".orig_ms", walls[npb.Orig])
		if gen, ok := walls[npb.Gen]; ok {
			p.add("npb."+k.name+".gen_ms", gen)
		}
		ratios = append(ratios, walls[npb.Reo]/walls[npb.Orig])
	}
	p.add("npb.reo_vs_orig", geomean(ratios))
	return nil
}

// serve times the four requests of a session against the real reo-serve
// binary, one client, from the spans around each HTTP call.
func (p *probes) serve() error {
	bin, build, err := buildServe(p.root)
	if err != nil {
		return err
	}
	p.add("harness.build_s", build.Seconds())
	srv, err := spawnServe(bin)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer srv.stop()
	c := newServeClient(srv.base, p.tr)
	defer c.hc.CloseIdleConnections()
	root := p.tr.begin(-1, "harness.serve", "")
	defer p.tr.end(root)
	from := p.tr.mark()
	sessions := max(p.scaled(20), 2)
	for s := 0; s < sessions; s++ {
		_, bad, err := c.session(root, s<<8, p.fault, nil)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		p.count(opsPerSession, bad, "serve probe: echo differs from the value sent")
	}
	for _, req := range []string{"create", "send", "recv", "delete"} {
		ns := p.tr.spanDurations("serve."+req, from)
		for i := range ns {
			ns[i] /= 1e3
		}
		p.add("serve."+req+"_us", ns...)
	}
	return nil
}
