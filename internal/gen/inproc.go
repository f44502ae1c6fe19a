package gen

// This file builds generated-region templates *in process*: instead of
// emitting Go source (parametric.go) and compiling a scratch module, it
// compiles each region automaton's ca.Transitions directly into
// engine.GenTemplate closures and hands them to engine.BindGen. The
// result is lowered into the same dispatch tables as `reoc gen` output
// and fires through the engine's one fire loop, which is what makes it
// usable as a differential lane for arbitrary connectors: the schedule
// explorer (internal/explore) generates random connectors and binds them
// here without ever shelling out to the Go toolchain.
//
// The closure compiler mirrors ca.CompilePlan's resolution rules
// (sources read pending values, sinks receive deliveries, hidden ports
// resolve through the transition's own action chain with memoized
// locals) and the parametric emitter's evaluation order (guard chains
// flushed before each check; every output value computed before any
// delivery or cell write). Unlike the emitter it does not need
// registered function *names*: guards capture Guard.Pred and actions
// capture Action.Xform directly, so anonymous functions are fine.

import (
	"fmt"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/engine"
)

// InProcOptions configure the in-process template builder.
type InProcOptions struct {
	// MutateRotateCandidates rotates every multi-transition state's
	// candidate row by one position. The rotated template still passes
	// BindGen's structural validation (state/transition counts and slot
	// classification are unchanged) but resolves seeded choice against a
	// misordered candidate list — an off-by-one in the generated
	// runtime's candidate ordering. It exists solely so the explorer's
	// mutation self-check (`reoc explore -selfcheck`, TestExplore
	// MutationCheck) can prove the differential harness detects exactly
	// this class of bug. Never set it outside that self-check.
	MutateRotateCandidates bool
}

// InProcBinder returns a bind callback for engine.NewMultiRegionsBound
// that compiles every eligible region (single automaton, no synthesized
// node automata) into an in-process generated template and binds it.
// Regions whose transitions cannot be compiled (multi-automaton regions,
// causal cycles) are silently left interpreted — the mixed instance
// stays correct, exactly as with emitted parametric templates. The
// returned counter reports how many regions were bound.
func InProcBinder(asm *compile.Assembly, opt InProcOptions) (bind func(ri int, spec ca.RegionSpec, eng *engine.Engine), bound *int) {
	plan := ca.PlanRegions(asm.U, asm.Auts)
	bound = new(int)
	bind = func(ri int, spec ca.RegionSpec, eng *engine.Engine) {
		if len(spec.Auts) != 1 || len(spec.Nodes) != 0 {
			return
		}
		a := asm.Auts[spec.Auts[0]]
		_, ports, cells := ca.CanonicalRegion(a)
		cls := regionCls(asm.U, plan, ri, ports)
		gt, err := BuildInProcTemplate(a, cls, ports, cells, opt)
		if err != nil {
			return
		}
		if eng.BindGen(gt, ports, cells, nil, nil) == nil {
			*bound++
		}
	}
	return bind, bound
}

// BuildInProcTemplate compiles one region automaton into a generated
// template whose guard/exec closures capture the automaton's own
// predicate and transformation functions. cls must be the slot
// classification of the region's ports under its actual link layout
// (regionCls / engine.ClsOfDir); BindGen re-validates it at bind time.
func BuildInProcTemplate(a *ca.Automaton, cls string, ports []ca.PortID, cells []ca.CellID, opt InProcOptions) (*engine.GenTemplate, error) {
	ip := &ipCompiler{
		aut:     a,
		cls:     cls,
		slot:    make(map[ca.PortID]int, len(ports)),
		cellIdx: make(map[ca.CellID]int, len(cells)),
	}
	for i, p := range ports {
		ip.slot[p] = i
	}
	for i, c := range cells {
		ip.cellIdx[c] = i
	}
	gt := &engine.GenTemplate{
		States:  a.NumStates(),
		Initial: a.Initial,
		Cells:   len(cells),
		Cls:     cls,
		Trans:   make([][]engine.GenTrans, a.NumStates()),
	}
	for s := range a.Trans {
		row := make([]engine.GenTrans, 0, len(a.Trans[s]))
		for i := range a.Trans[s] {
			tr, err := ip.buildTrans(&a.Trans[s][i], int32(s))
			if err != nil {
				return nil, err
			}
			row = append(row, tr)
		}
		if opt.MutateRotateCandidates && len(row) > 1 {
			rot := make([]engine.GenTrans, 0, len(row))
			rot = append(rot, row[1:]...)
			rot = append(rot, row[0])
			row = rot
		}
		gt.Trans[s] = row
	}
	return gt, nil
}

type ipCompiler struct {
	aut     *ca.Automaton
	cls     string
	slot    map[ca.PortID]int
	cellIdx map[ca.CellID]int
}

// ipRef is a compiled data location: the closure-level form of ca's
// valRef.
type ipRef struct {
	kind  byte // 'c' const, 'm' cell, 'p' source port slot, 'l' local
	c     any
	cell  int
	pslot int
	local int
}

func (c *ipCompiler) readRef(g *engine.GenCtx, locals []any, r *ipRef) any {
	switch r.kind {
	case 'c':
		return r.c
	case 'm':
		return g.Cell(r.cell)
	case 'p':
		return g.Val(r.pslot)
	default:
		return locals[r.local]
	}
}

// ipOp computes one memoized hidden-port chain local:
// locals[dst] = xform(read(src)).
type ipOp struct {
	src   ipRef
	xform func(any) any
	dst   int
}

// ipExprCtx resolves Locs for one closure (guard or exec), memoizing
// hidden-port chains into locals exactly as ca.CompilePlan does.
type ipExprCtx struct {
	c         *ipCompiler
	t         *ca.Transition
	ops       []ipOp
	memo      map[ca.PortID]int
	resolving map[ca.PortID]bool
}

func (x *ipExprCtx) resolve(l ca.Loc) (ipRef, error) {
	switch l.Kind {
	case ca.LocConst:
		return ipRef{kind: 'c', c: l.Const}, nil
	case ca.LocCell:
		idx, ok := x.c.cellIdx[l.Cell]
		if !ok {
			return ipRef{}, fmt.Errorf("gen: cell read outside the region automaton's referenced cells")
		}
		return ipRef{kind: 'm', cell: idx}, nil
	case ca.LocPort:
		return x.resolvePort(l.Port)
	}
	return ipRef{}, fmt.Errorf("gen: invalid location kind %d", l.Kind)
}

func (x *ipExprCtx) resolvePort(p ca.PortID) (ipRef, error) {
	if slot, ok := x.c.slot[p]; ok && x.c.cls[slot] == 'S' {
		return ipRef{kind: 'p', pslot: slot}, nil
	}
	if x.memo == nil {
		x.memo = make(map[ca.PortID]int)
		x.resolving = make(map[ca.PortID]bool)
	}
	if l, ok := x.memo[p]; ok {
		return ipRef{kind: 'l', local: l}, nil
	}
	if x.resolving[p] {
		return ipRef{}, fmt.Errorf("gen: causal cycle through port %q in transition data flow", x.c.aut.U.Name(p))
	}
	for ai := range x.t.Acts {
		act := &x.t.Acts[ai]
		if act.Dst.Kind != ca.LocPort || act.Dst.Port != p {
			continue
		}
		x.resolving[p] = true
		src, err := x.resolve(act.Src)
		delete(x.resolving, p)
		if err != nil {
			return ipRef{}, err
		}
		l := len(x.ops)
		x.ops = append(x.ops, ipOp{src: src, xform: act.Xform, dst: l})
		x.memo[p] = l
		return ipRef{kind: 'l', local: l}, nil
	}
	return ipRef{}, fmt.Errorf("gen: no value defined for port %q in transition", x.c.aut.U.Name(p))
}

// buildTrans compiles one transition into a GenTrans, mirroring
// parametric.go's buildTrans evaluation order with closures in place of
// rendered source.
func (c *ipCompiler) buildTrans(t *ca.Transition, state int32) (engine.GenTrans, error) {
	var out engine.GenTrans
	var serr error
	t.Sync.ForEach(func(p ca.PortID) {
		slot, ok := c.slot[p]
		if !ok && serr == nil {
			serr = fmt.Errorf("gen: sync port %q not referenced by the region automaton", c.aut.U.Name(p))
		}
		out.Sync = append(out.Sync, int32(slot))
	})
	if serr != nil {
		return out, serr
	}
	out.Target = t.Target

	// Guard closure: chain locals flushed before each check, in the
	// interpreter's order. Guard.Pred already folds negation and any
	// transformation chain, so it is applied to the raw resolved input —
	// exactly as ca.CompilePlan's CheckGuards does.
	if len(t.Guards) > 0 {
		gctx := &ipExprCtx{c: c, t: t}
		type ipGuard struct {
			src    ipRef
			pred   func(any) bool
			opsEnd int
		}
		var guards []ipGuard
		for gi := range t.Guards {
			g := &t.Guards[gi]
			if g.Pred == nil {
				return out, fmt.Errorf("gen: transition guard without a predicate cannot be compiled")
			}
			src, err := gctx.resolve(g.In)
			if err != nil {
				return out, err
			}
			guards = append(guards, ipGuard{src: src, pred: g.Pred, opsEnd: len(gctx.ops)})
		}
		gops := gctx.ops
		locals := make([]any, len(gops))
		out.Guards = func(g *engine.GenCtx) bool {
			done := 0
			for i := range guards {
				gd := &guards[i]
				for ; done < gd.opsEnd; done++ {
					op := &gops[done]
					v := c.readRef(g, locals, &op.src)
					if op.xform != nil {
						v = op.xform(v)
					}
					locals[op.dst] = v
				}
				if !gd.pred(c.readRef(g, locals, &gd.src)) {
					return false
				}
			}
			return true
		}
	}

	// Exec closure: external effects in action order, every output value
	// computed before any delivery or cell write (pre-step simultaneity),
	// deliveries before deferred cell writes.
	type ipOut struct {
		src     ipRef
		xform   func(any) any
		slot    int
		cell    int
		deliver bool
		opsEnd  int
	}
	ectx := &ipExprCtx{c: c, t: t}
	var outs []ipOut
	cellWrites := 0
	for ai := range t.Acts {
		act := &t.Acts[ai]
		switch act.Dst.Kind {
		case ca.LocPort:
			slot, ok := c.slot[act.Dst.Port]
			if !ok || c.cls[slot] != 'K' {
				continue // hidden (or source) destination: feeds chains only
			}
			src, err := ectx.resolve(act.Src)
			if err != nil {
				return out, err
			}
			outs = append(outs, ipOut{src: src, xform: act.Xform, slot: slot, deliver: true, opsEnd: len(ectx.ops)})
		case ca.LocCell:
			idx, ok := c.cellIdx[act.Dst.Cell]
			if !ok {
				return out, fmt.Errorf("gen: cell write outside the region automaton's referenced cells")
			}
			src, err := ectx.resolve(act.Src)
			if err != nil {
				return out, err
			}
			outs = append(outs, ipOut{src: src, xform: act.Xform, cell: idx, opsEnd: len(ectx.ops)})
			cellWrites++
		case ca.LocConst:
			return out, fmt.Errorf("gen: constant as action destination")
		}
	}
	if len(outs) > 0 || len(ectx.ops) > 0 {
		eops := ectx.ops
		elocals := make([]any, len(eops))
		vals := make([]any, len(outs))
		outsv := outs
		out.Exec = func(g *engine.GenCtx) {
			done := 0
			for i := range outsv {
				o := &outsv[i]
				for ; done < o.opsEnd; done++ {
					op := &eops[done]
					v := c.readRef(g, elocals, &op.src)
					if op.xform != nil {
						v = op.xform(v)
					}
					elocals[op.dst] = v
				}
				v := c.readRef(g, elocals, &o.src)
				if o.xform != nil {
					v = o.xform(v)
				}
				vals[i] = v
			}
			for i := range outsv {
				if outsv[i].deliver {
					g.Deliver(outsv[i].slot, vals[i])
				}
			}
			for i := range outsv {
				if !outsv[i].deliver {
					g.SetCell(outsv[i].cell, vals[i])
				}
			}
		}
	}
	out.Flow = len(t.Guards) == 0 && cellWrites == 0 && t.Target == state
	return out, nil
}
