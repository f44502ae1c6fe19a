package main

import (
	"fmt"
	"time"

	reo "repro"
	"repro/internal/connlib"
)

var fig12Ns = []int{2, 8, 32}

// verifiedPasses is how many verified passes fig12-sweep makes over each
// cell.
const verifiedPasses = 3

// compileAll compiles the eighteen connlib programs, front end to
// template, as every workload that uses them does in its set-up.
func compileAll() ([]*reo.Connector, error) {
	defs := connlib.All()
	conns := make([]*reo.Connector, len(defs))
	for i, d := range defs {
		c, err := d.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		conns[i] = c
	}
	return conns, nil
}

// cell is one (connector, N) pair of a sweep.
type cell struct {
	def  connlib.Def
	conn *reo.Connector
	n    int
}

func (c cell) String() string { return fmt.Sprintf("%s/n%d", c.def.Name, c.n) }

// sweepCells lists connectors × ns in seeded order.
func sweepCells(r *run, conns []*reo.Connector, ns []int) []cell {
	var cells []cell
	for i, d := range connlib.All() {
		for _, n := range ns {
			cells = append(cells, cell{d, conns[i], n})
		}
	}
	r.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// driven is what one free-running window of a cell yields.
type driven struct {
	rates                     []float64 // steps/s in each of the window's equal sub-windows
	steps, guards, expansions int64     // over the whole window, warm-up excluded
	elapsed                   time.Duration
}

// driveCell connects the cell, lets the paper's free-running driver
// (connlib.Drive: every task sends or receives as often as it can) warm up,
// then samples Instance.Steps at the ends of minSegments equal sub-windows.
func driveCell(r *run, c cell, parent int, warm, window time.Duration) (driven, error) {
	var d driven
	id := r.tr.begin(parent, "reo.Connect", c.String())
	inst, err := c.conn.Connect(c.def.Lengths(c.n), reo.WithSeed(r.seed))
	r.tr.end(id)
	if err != nil {
		return d, err
	}
	id = r.tr.begin(parent, "connlib.Drive", c.String())
	wait := connlib.Drive(c.def, inst, c.n)
	time.Sleep(warm)
	s0, g0, x0, t0 := inst.Steps(), inst.GuardEvals(), inst.Expansions(), time.Now()
	ps, pt := s0, t0
	for i := 0; i < minSegments; i++ {
		time.Sleep(window / minSegments)
		s, t := inst.Steps(), time.Now()
		// A sub-window without a step (an expansion-bound cell mid-
		// expansion) counts as one step, or the sweep's geomean would be 0.
		d.rates = append(d.rates, float64(max(s-ps, 1))/t.Sub(pt).Seconds())
		ps, pt = s, t
	}
	d.steps, d.guards, d.expansions = ps-s0, inst.GuardEvals()-g0, inst.Expansions()-x0
	d.elapsed = pt.Sub(t0)
	r.tr.end(id, "steps", d.steps, "guard_evals", d.guards, "expansions", d.expansions)
	id = r.tr.begin(parent, "reo.Close", c.String())
	inst.Close()
	wait()
	r.tr.end(id)
	return d, nil
}

// checkCell runs the oracle's verified pass over a fresh instance of the
// cell: k values per sender, every port operation timed.
func checkCell(r *run, c cell, parent, k int, timed bool) cellCheck {
	id := r.tr.begin(parent, "reo.Connect", c.String())
	inst, err := c.conn.Connect(c.def.Lengths(c.n), reo.WithSeed(r.seed))
	r.tr.end(id)
	if err != nil {
		want := int64(1)
		if sh, ok := shapes[c.def.Name]; ok {
			want = int64(sh.want(c.n, k))
		}
		return cellCheck{attempted: want, failed: want, why: fmt.Sprintf("%s: Connect: %v", c, err)}
	}
	id = r.tr.begin(parent, "oracle.check", c.String())
	chk := runChecked(c.def, inst, c.n, k, int(r.seed&0xffff)<<32, r.fault, timed)
	r.tr.end(id)
	if chk.failed > 0 {
		chk.why = fmt.Sprintf("%s: %s", c, chk.why)
	}
	return chk
}

// geoAcross turns per-cell sample rows into sweep-level samples: sample j
// is the geomean over cells of each cell's j-th value, so the sweep has
// quartiles of its own and no cell outweighs another.
func geoAcross(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for i, row := range rows {
			col[i] = row[j]
		}
		out[j] = geomean(col)
	}
	return out
}

func runFig12(r *run) error {
	conns, err := repeatSetup(r, compileAll, func([]*reo.Connector) {})
	if err != nil {
		return err
	}
	cells := sweepCells(r, conns, fig12Ns)
	// Three quarters of the budget go to the free-running windows, the
	// rest to the verified passes.
	window := r.part(0.75) / time.Duration(len(cells))
	warm := window / 5

	var rates, p50s [][]float64
	for _, c := range cells {
		root := r.tr.begin(-1, "harness.cell", c.String())
		d, err := driveCell(r, c, root, warm, window)
		if err != nil || d.steps <= 0 {
			r.count(1, 1, fmt.Sprintf("%s: free-running window fired no step (%v)", c, err))
			r.tr.end(root)
			continue
		}
		r.count(1, 0, "")
		rates = append(rates, d.rates)
		// 4096/N values per sender keep every pass at a few thousand
		// timed port operations whatever the cell's N; each pass is a
		// fresh instance, and the median over passes forgives one that the
		// scheduler treated badly.
		var p50 []float64
		passes, k := verifiedPasses, max(4096/c.n, 64)
		if r.quick {
			passes, k = 1, max(256/c.n, 4)
		}
		for pass := 0; pass < passes; pass++ {
			chk := checkCell(r, c, root, k, true)
			r.count(chk.attempted, chk.failed, chk.why)
			if len(chk.opUS) > 0 {
				p50 = append(p50, percentile(chk.opUS, 50))
			}
		}
		r.tr.end(root)
		if len(p50) == passes {
			p50s = append(p50s, p50)
		}
	}
	if len(rates) == 0 || len(p50s) == 0 {
		return fmt.Errorf("fig12-sweep: no cell ran")
	}
	sweep := geoAcross(rates)
	r.report("steps_per_s", sweep)
	r.report("ops_per_s", sweep)
	r.report("op_p50_us", geoAcross(p50s))
	return nil
}
