package engine

import (
	"fmt"

	"repro/internal/ca"
)

// This file implements generated-region execution: a region engine whose
// guards and data actions were emitted as static Go code by `reoc gen`
// (internal/gen's emitter) or compiled to closures in process
// (gen.InProcBinder) instead of being interpreted from compiled plans.
// The generated code supplies a GenTemplate — transition tables over
// *slot indices* plus guard/exec closures — and BindGen lowers it, for
// one concrete region, into the table the engine walks anyway: one
// pre-linked expanded per local state, its plans native (ca.NativePlan)
// over the region's actual PortIDs/CellIDs.
//
// There is no second fire loop. A bound region and an interpreted region
// run fireLoop over the same table shape — same candidate enumeration,
// guardEvals accounting, seeded choice, fused pure-flow bursts, tracing
// and τ-livelock budget, because it is the same code — and differ only in
// where the table comes from (bind time vs. just-in-time expansion) and in
// what a plan's CheckGuards/Execute run.

// GenTrans is one transition of a generated region template. Sync lists
// the template's port slots (ascending) through which data flows; Guards
// and Exec are the emitted guard conjunction and data actions, reading
// and writing through the bound GenCtx. Either may be nil (no guards /
// no actions).
type GenTrans struct {
	Sync   []int32
	Target int32
	Flow   bool
	Guards func(*GenCtx) bool
	Exec   func(*GenCtx)
}

// GenTemplate is the static form of one region automaton, parametric in
// the actual ports: slot i stands for the i-th referenced port (in
// ascending universe order at generation time), classified by Cls[i] —
// 'S' for a value source (boundary send port or emitting link endpoint),
// 'K' for a value sink (boundary receive port or accepting link
// endpoint), 'I' for an internal vertex. BindGen checks the
// classification against the region it binds, so a template generated
// for one link layout can never silently misread a differently-cut
// region.
type GenTemplate struct {
	States  int
	Initial int32
	Cells   int
	Cls     string
	Trans   [][]GenTrans
}

// GenCtx is the execution context handed to generated guard/exec
// closures: it maps template slots to the bound region's real ports and
// cells, and carries the resolved filter/transformer functions the
// emitted code calls by index.
type GenCtx struct {
	e       *Engine
	portIDs []ca.PortID
	cellIDs []ca.CellID
	// Filt and Xf hold the registered filter/transformer functions in
	// the order the generated package declared them; emitted guards and
	// actions index into them.
	Filt []func(any) bool
	Xf   []func(any) any
}

// Val returns the value currently observable at slot: the pending send's
// current batch item, or the head of the emitting link.
func (g *GenCtx) Val(slot int) any { return g.e.PlanPortVal(g.portIDs[slot]) }

// Deliver hands a fired value to slot: the pending receive's current
// batch item, and/or the staging buffer of the accepting links.
func (g *GenCtx) Deliver(slot int, v any) { g.e.PlanDeliver(g.portIDs[slot], v) }

// Cell reads the i-th bound memory cell.
func (g *GenCtx) Cell(i int) any { return g.e.cells[g.cellIDs[i]] }

// SetCell writes the i-th bound memory cell.
func (g *GenCtx) SetCell(i int, v any) { g.e.cells[g.cellIDs[i]] = v }

// BindGen installs a generated template on a single-automaton region
// engine: slots are bound to ports/cells and every local state is lowered
// to its dispatch table, so the engine never expands a state. Must be
// called after link endpoints are finalized (initLinks) and before any
// operation registers; NewMultiRegionsBound's bind callback is the
// intended call site. The template must be well-formed — sync slots in
// range and strictly ascending, targets in range — and structurally match
// the region's automaton — state/transition counts, initial state, and
// the per-slot classification under the region's actual link layout — or
// an error is returned and the engine is left untouched (it simply stays
// interpreted).
func (e *Engine) BindGen(t *GenTemplate, ports []ca.PortID, cells []ca.CellID, filts []func(any) bool, xfs []func(any) any) error {
	if len(e.auts) != 1 {
		return fmt.Errorf("engine: BindGen on a %d-automaton region", len(e.auts))
	}
	a := e.auts[0]
	if a.NumStates() != t.States || len(t.Trans) != t.States {
		return fmt.Errorf("engine: generated template has %d states, region automaton %d", t.States, a.NumStates())
	}
	if a.Initial != t.Initial {
		return fmt.Errorf("engine: generated template initial state %d, region automaton %d", t.Initial, a.Initial)
	}
	if len(ports) != len(t.Cls) {
		return fmt.Errorf("engine: %d ports bound to a %d-slot template", len(ports), len(t.Cls))
	}
	if len(cells) != t.Cells {
		return fmt.Errorf("engine: %d cells bound to a %d-cell template", len(cells), t.Cells)
	}
	for slot, p := range ports {
		if p < 0 || int(p) >= len(e.pend) {
			return fmt.Errorf("engine: slot %d bound to unknown port %d", slot, p)
		}
		if got := clsOfDir(e.planDir(p)); got != t.Cls[slot] {
			return fmt.Errorf("engine: slot %d (%s) classifies %q under this region's links, template wants %q",
				slot, e.u.Name(p), string(got), string(t.Cls[slot]))
		}
	}
	for s, row := range t.Trans {
		if len(a.Trans[s]) != len(row) {
			return fmt.Errorf("engine: generated template state %d has %d transitions, region automaton %d",
				s, len(row), len(a.Trans[s]))
		}
		for i := range row {
			tt := &row[i]
			if tt.Target < 0 || int(tt.Target) >= t.States {
				return fmt.Errorf("engine: generated template state %d transition %d targets state %d of %d",
					s, i, tt.Target, t.States)
			}
			for j, slot := range tt.Sync {
				if slot < 0 || int(slot) >= len(ports) {
					return fmt.Errorf("engine: generated template state %d transition %d syncs on slot %d of %d",
						s, i, slot, len(ports))
				}
				if j > 0 && slot <= tt.Sync[j-1] {
					return fmt.Errorf("engine: generated template state %d transition %d sync slots not strictly ascending",
						s, i)
				}
			}
		}
	}

	ctx := &GenCtx{e: e, portIDs: ports, cellIDs: cells, Filt: filts, Xf: xfs}
	table := make([]*expanded, t.States)
	for s := range table {
		table[s] = new(expanded)
	}
	e.initDispatch()
	for s, row := range t.Trans {
		n := len(row)
		ex := table[s]
		ex.plans = make([]*ca.Plan, n)
		ex.deltas = make([][]ca.Delta, n)
		ex.succ = make([]*expanded, n)
		ex.flow = make([]bool, n)
		moves := make([]ca.Delta, n) // backing store of the one-entry deltas
		for i := range row {
			tt := &row[i]
			sync := e.u.NewSet()
			for _, slot := range tt.Sync {
				sync.Set(ports[slot])
			}
			var guards func() bool
			if g := tt.Guards; g != nil {
				guards = func() bool { return g(ctx) }
			}
			var exec func()
			if x := tt.Exec; x != nil {
				exec = func() { x(ctx) }
			}
			ex.plans[i] = ca.NativePlan(sync, guards, exec)
			moves[i] = ca.Delta{Aut: 0, Target: tt.Target}
			ex.deltas[i] = moves[i : i+1 : i+1]
			ex.succ[i] = table[tt.Target]
			ex.flow[i] = tt.Flow
		}
		e.indexPorts(ex)
	}
	e.bound = table
	return nil
}

// clsOfDir maps a plan-compilation direction to the template slot
// classification character. planDir already folds link endpoints into
// the boundary directions (an emitting endpoint is a value source, an
// accepting endpoint with no task a value sink), so the mapping is
// direct.
func clsOfDir(d ca.Dir) byte {
	switch d {
	case ca.DirSource:
		return 'S'
	case ca.DirSink:
		return 'K'
	default:
		return 'I'
	}
}

// ClsOfDir exposes the slot classification to the code generator, which
// must bake the same classification into emitted templates.
func ClsOfDir(d ca.Dir) byte { return clsOfDir(d) }

// Generated reports whether the engine runs on a bound generated
// template (diagnostics and tests).
func (e *Engine) Generated() bool { return e.bound != nil }
