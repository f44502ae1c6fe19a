package main

import (
	"fmt"
	"time"

	reo "repro"
)

var instantiateNs = []int{2, 4, 8, 16, 32, 64}

func (r *run) instantiateNs() []int {
	if r.quick {
		return []int{2, 16}
	}
	return instantiateNs
}

// itemsPerCycle is how many deliveries one instantiate cycle moves after
// its first item.
const itemsPerCycle = 64

// cycle is one instantiate cycle of a cell: Connect(N) -> first item ->
// the rest of the items -> Close, on a fresh instance, verified.
func cycle(r *run, c cell, parent int) (connect, first time.Duration, chk cellCheck) {
	sh, ok := shapes[c.def.Name]
	if !ok {
		return 0, 0, cellCheck{attempted: 1, failed: 1, why: "no oracle for connector " + c.def.Name}
	}
	k := (itemsPerCycle + sh.want(c.n, 1) - 1) / sh.want(c.n, 1)
	id := r.tr.begin(parent, "reo.Connect", c.String())
	t0 := time.Now()
	inst, err := c.conn.Connect(c.def.Lengths(c.n), reo.WithSeed(r.seed))
	connect = time.Since(t0)
	if err != nil {
		r.tr.end(id)
		want := int64(sh.want(c.n, k))
		return connect, 0, cellCheck{attempted: want, failed: want, why: fmt.Sprintf("%s: Connect: %v", c, err)}
	}
	r.tr.end(id, "auts", int64(inst.Constituents()))
	id = r.tr.begin(parent, "oracle.check", c.String())
	chk = runChecked(c.def, inst, c.n, k, int(r.seed&0xffff)<<32, r.fault, false)
	r.tr.end(id)
	if chk.failed > 0 {
		chk.why = fmt.Sprintf("%s: %s", c, chk.why)
	}
	return connect, chk.first, chk
}

func runInstantiate(r *run) error {
	// Set-up is one warm-up pass: compile everything, one cycle per
	// connector at the smallest N.
	_, err := repeatSetup(r, func() ([]*reo.Connector, error) {
		conns, err := compileAll()
		if err != nil {
			return nil, err
		}
		for _, c := range sweepCells(r, conns, instantiateNs[:1]) {
			if _, _, chk := cycle(r, c, -1); chk.failed > 0 {
				return nil, fmt.Errorf("%s", chk.why)
			}
		}
		return conns, nil
	}, func([]*reo.Connector) {})
	if err != nil {
		return err
	}

	var compileMS, connectUS, firstUS, cyclesPerS, p50 []float64
	err = r.untilBudget(r.budget, func(int) error {
		root := r.tr.begin(-1, "harness.rep", r.workload)
		defer r.tr.end(root)
		// No reuse: every rep compiles its own programs and every cycle
		// connects a fresh instance.
		id := r.tr.begin(root, "reo.Compile", "")
		t0 := time.Now()
		conns, err := compileAll()
		compileMS = append(compileMS, float64(time.Since(t0))/1e6)
		r.tr.end(id)
		if err != nil {
			return err
		}
		cells := sweepCells(r, conns, r.instantiateNs())
		var conn, first, toFirst []float64
		t0 = time.Now()
		for _, c := range cells {
			cn, fi, chk := cycle(r, c, root)
			r.count(chk.attempted, chk.failed, chk.why)
			if chk.failed == 0 {
				conn = append(conn, float64(cn)/1e3)
				first = append(first, float64(fi)/1e3)
				toFirst = append(toFirst, float64(cn+fi)/1e3)
			}
		}
		if len(conn) == 0 {
			return fmt.Errorf("instantiate-scale: no cycle completed")
		}
		cyclesPerS = append(cyclesPerS, float64(len(cells))/time.Since(t0).Seconds())
		connectUS = append(connectUS, geomean(conn))
		firstUS = append(firstUS, geomean(first))
		p50 = append(p50, percentile(toFirst, 50))
		return nil
	})
	if err != nil {
		return err
	}
	r.report("compile_ms", compileMS)
	r.report("connect_us", connectUS)
	r.report("first_item_us", firstUS)
	r.report("ops_per_s", cyclesPerS)
	// The operation a caller waits on here is Connect call -> first item.
	r.report("op_p50_us", p50)
	mb, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.report("peak_rss_mb", []float64{mb})
	return nil
}
