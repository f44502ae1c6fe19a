package engine

import (
	"fmt"
	"math"

	"repro/internal/ca"
)

// This file implements generated-region execution: a region engine whose
// dispatch tables, guards, and data actions were emitted as static Go
// code by `reoc gen` (internal/gen's parametric path) instead of being
// interpreted from compiled plans. The generated code supplies a
// GenTemplate — transition tables over *slot indices* plus guard/exec
// closures — and BindGen instantiates it against one concrete region: the
// slots are bound to the region's actual PortIDs/CellIDs, and the engine
// switches its fire loop to the static tables (fireLoopGen).
//
// Everything around the fire loop is shared with the interpreted path
// verbatim: operation registration and batch cursors, region links and
// gate masks, nudges, the worker runtime, close/break/reset, and the
// Steps/GuardEvals accounting. The generated loop mirrors fireLoop's
// observable behavior exactly — candidate enumeration order, the
// guardEvals-per-candidate counting, seeded choice, fused pure-flow
// bursts with deferred link publication, and the τ-livelock budget — so
// a generated region is indistinguishable from an interpreted one to its
// tasks, its sibling regions, and the differential tests.

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

// genTrans is one bound transition: template slots resolved to PortIDs,
// pre-split into the subsets the dispatch and firing paths walk.
type genTrans struct {
	// syncPorts holds every sync port ascending (advanceOps/fuseBudget
	// order — the bit-set walk of the interpreted path is ascending too).
	syncPorts []ca.PortID
	// bndPorts is sync ∩ boundary: ports needing a pending operation.
	bndPorts []ca.PortID
	// gatePorts is sync ∩ linkGate: ports needing their queue condition.
	gatePorts []ca.PortID
	target    int32
	flow      bool
	guards    func(*GenCtx) bool
	exec      func(*GenCtx)
}

// genMode is the bound static dispatch state of a generated region,
// mirroring the interpreted path's per-state expansion indexes (byPort,
// taus) over the fixed transition tables.
type genMode struct {
	ctx    *GenCtx
	trans  [][]genTrans
	byPort []map[ca.PortID][]int32
	taus   [][]int32
}

// BindGen installs a generated template on a single-automaton region
// engine: slots are bound to ports/cells, the static dispatch indexes
// are built, and the engine's fire loop switches to the generated path.
// Must be called after link endpoints are finalized (initLinks) and
// before any operation registers; NewMultiRegionsBound's bind callback
// is the intended call site. The template must structurally match the
// region's automaton — state/transition counts, initial state, and the
// per-slot classification under the region's actual link layout — or an
// error is returned and the engine is left untouched (it simply stays
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
		if got := clsOfDir(e.planDir(p)); got != t.Cls[slot] {
			return fmt.Errorf("engine: slot %d (%s) classifies %q under this region's links, template wants %q",
				slot, e.u.Name(p), string(got), string(t.Cls[slot]))
		}
	}
	g := &genMode{
		ctx:    &GenCtx{e: e, portIDs: ports, cellIDs: cells, Filt: filts, Xf: xfs},
		trans:  make([][]genTrans, t.States),
		byPort: make([]map[ca.PortID][]int32, t.States),
		taus:   make([][]int32, t.States),
	}
	for s := range t.Trans {
		if len(a.Trans[s]) != len(t.Trans[s]) {
			return fmt.Errorf("engine: generated template state %d has %d transitions, region automaton %d",
				s, len(t.Trans[s]), len(a.Trans[s]))
		}
		g.trans[s] = make([]genTrans, len(t.Trans[s]))
		g.byPort[s] = make(map[ca.PortID][]int32)
		for i := range t.Trans[s] {
			tt := &t.Trans[s][i]
			bt := &g.trans[s][i]
			bt.target = tt.Target
			bt.flow = tt.Flow
			bt.guards = tt.Guards
			bt.exec = tt.Exec
			hasGate := false
			for _, slot := range tt.Sync {
				p := ports[slot]
				bt.syncPorts = append(bt.syncPorts, p)
				gated := false
				if e.boundary.Has(p) {
					bt.bndPorts = append(bt.bndPorts, p)
					gated = true
				}
				if e.linkGate != nil && e.linkGate.Has(p) {
					bt.gatePorts = append(bt.gatePorts, p)
					gated = true
				}
				if gated {
					g.byPort[s][p] = append(g.byPort[s][p], int32(i))
					hasGate = true
				}
			}
			if !hasGate {
				g.taus[s] = append(g.taus[s], int32(i))
			}
		}
	}
	e.gen = g
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

// fireLoopGen is fireLoop over the bound static tables: same candidate
// enumeration order (the trigger's port index merged with the τ list, or
// a full scan), same per-candidate guardEvals accounting, same seeded
// pick, same fused-flow burst, same τ budget. Called with mu held.
func (e *Engine) fireLoopGen(trigger ca.PortID) {
	g := e.gen
	e.fireCompleted, e.fireLinkActive = false, false
	if e.broken != nil {
		return
	}
	indexed := trigger != pumpTrigger
	if !indexed && e.linkGate != nil {
		e.refreshLinks()
	}
	tau := 0
	for {
		st := e.state[0]
		trans := g.trans[st]
		e.enabledBuf = e.enabledBuf[:0]
		if indexed {
			indexed = false
			byp := g.byPort[st][trigger]
			taus := g.taus[st]
			i, j := 0, 0
			for i < len(byp) || j < len(taus) {
				var next int32
				switch {
				case j >= len(taus) || (i < len(byp) && byp[i] < taus[j]):
					next = byp[i]
					i++
				default:
					next = taus[j]
					j++
				}
				e.tryEnableGen(g, &trans[next], next)
			}
		} else {
			for i := range trans {
				e.tryEnableGen(g, &trans[i], int32(i))
			}
		}
		if len(e.enabledBuf) == 0 {
			return
		}
		pick := 0
		if len(e.enabledBuf) > 1 {
			pick = e.rng.Intn(len(e.enabledBuf))
		}
		t := &trans[e.enabledBuf[pick]]
		if t.exec != nil {
			t.exec(g.ctx)
		}
		linkActive := false
		if e.linkGate != nil {
			linkActive = e.fireLinksGen(t, false)
		}
		var traced []TracePort
		var tracedp *[]TracePort
		if e.tracer != nil {
			tracedp = &traced
		}
		completedAny := e.advanceOpsGen(t, tracedp)
		if t.flow && e.tracer == nil {
			e.fireFusedGen(t)
		}
		e.state[0] = t.target
		step := e.steps.Add(1)
		if e.tracer != nil {
			e.tracer(TraceEvent{Step: step, Ports: traced, Internal: !completedAny})
		}
		e.fireCompleted = e.fireCompleted || completedAny
		e.fireLinkActive = e.fireLinkActive || linkActive
		if completedAny || linkActive {
			tau = 0
		} else {
			tau++
			if tau > e.opts.MaxTauBurst {
				e.break_(ErrLivelock)
				return
			}
		}
	}
}

// tryEnableGen appends transition i to the candidate buffer if every
// boundary port in its sync set has a pending operation, every link
// endpoint's queue condition holds, and its guards pass. Counts one
// guard evaluation per mask-passing candidate, guards or not — exactly
// as the interpreted tryEnable does. Generated guards call only
// registered pure functions, so there is no error path. Must be called
// with mu held.
func (e *Engine) tryEnableGen(g *genMode, t *genTrans, i int32) {
	for _, p := range t.bndPorts {
		if !e.pendMask.Has(p) {
			return
		}
	}
	for _, p := range t.gatePorts {
		if !e.linkOK.Has(p) {
			return
		}
	}
	e.guardEvals.Add(1)
	if t.guards != nil && !t.guards(g.ctx) {
		return
	}
	e.enabledBuf = append(e.enabledBuf, i)
}

// advanceOpsGen is advanceOps over the bound transition's sync ports
// (ascending, matching the interpreted bit-set walk). Called with mu
// held.
func (e *Engine) advanceOpsGen(t *genTrans, traced *[]TracePort) bool {
	progressed := false
	for _, p := range t.syncPorts {
		o := e.pend[p]
		if o == nil {
			continue
		}
		if traced != nil {
			*traced = append(*traced, TracePort{Name: e.u.Name(p), Dir: e.dirs[p], Val: o.vals[o.cur]})
		}
		o.cur++
		progressed = true
		if o.cur == len(o.vals) {
			e.complete(p, o, nil)
		}
	}
	return progressed
}

// fireLinksGen is fireLinks over the bound transition's link endpoints
// (gatePorts, ascending — the same order as the interpreted masked
// bit-set walk). Called with mu held.
func (e *Engine) fireLinksGen(t *genTrans, deferred bool) bool {
	for _, p := range t.gatePorts {
		e.fireLinkPort(p, deferred)
	}
	return len(t.gatePorts) > 0
}

// commitLinksGen is commitLinks over the bound transition's link
// endpoints. Called with mu held.
func (e *Engine) commitLinksGen(t *genTrans) {
	for _, p := range t.gatePorts {
		e.commitLinkPort(p)
	}
}

// fuseBudgetGen is fuseBudget over the bound transition's sync ports.
// Called with mu held.
func (e *Engine) fuseBudgetGen(t *genTrans) int {
	k, gated := math.MaxInt, false
	for _, p := range t.syncPorts {
		var g bool
		k, g = e.gateBudget(p, k)
		gated = gated || g
	}
	if !gated {
		return 0
	}
	return k
}

// fireFusedGen is fireFused over a bound pure-flow transition. Generated
// execs have no error path, so the burst cannot break the engine. Called
// with mu held.
func (e *Engine) fireFusedGen(t *genTrans) {
	k := e.fuseBudgetGen(t)
	if k == 0 {
		return
	}
	for j := 0; j < k; j++ {
		if t.exec != nil {
			t.exec(e.gen.ctx)
		}
		if e.linkGate != nil {
			e.fireLinksGen(t, true)
		}
		e.advanceOpsGen(t, nil)
	}
	if e.linkGate != nil {
		e.commitLinksGen(t)
	}
	e.steps.Add(int64(k))
}

// Generated reports whether the engine runs on a bound generated
// template (diagnostics and tests).
func (e *Engine) Generated() bool { return e.gen != nil }
