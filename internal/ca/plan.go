package ca

import (
	"fmt"
	"strings"
)

// This file implements compiled transition plans: the ahead-of-time
// counterpart of the Env interpreter in automaton.go. The interpreter
// resolves hidden-port data-flow chains lazily with per-fire maps; a Plan
// resolves them once, at expansion time, into a flat program of slot
// assignments over a preallocated scratch array, so that the engine's
// steady-state firing path performs no allocation and no graph walking.
//
// A Plan is compiled once per Cluster and kept in its Plan slot, so every
// composite state that offers the cluster fires the same Plan. It reads
// nothing but the cluster's guards and actions and the classification of
// its ports — no cell contents, pending operations or queue states — which
// is what makes the sharing sound. CheckGuards and Execute on the same
// Plan must not be interleaved with other uses of that Plan: the engine
// serializes firing under its lock, which is exactly the required
// discipline.

// PlanHost supplies the runtime context a Plan needs while firing: pending
// send values for boundary source ports, and a destination for values the
// transition delivers to boundary sink ports. The engine implements it;
// using an interface (rather than func values) keeps the hot path free of
// closure allocations.
type PlanHost interface {
	// PlanPortVal returns the pending send value on a boundary source port.
	PlanPortVal(PortID) any
	// PlanDeliver hands a value to the pending receive on a sink port.
	PlanDeliver(PortID, any)
}

// refKind discriminates where a compiled value reference reads from.
type refKind uint8

const (
	refConst refKind = iota // immediate value
	refCell                 // instance memory cell
	refPort                 // boundary source port (pending send value)
	refSlot                 // scratch slot computed by an earlier slotOp
	refErr                  // resolution failed at compile time; surfaces lazily
)

// valRef is a compiled data location: the resolved form of a Loc.
type valRef struct {
	kind refKind
	cell CellID
	port PortID
	slot int32
	c    any
	err  error
}

// slotOp computes one scratch slot: scratch[dst] = xform(read(src)).
// Slot ops replace the interpreter's lazy hidden-port chain resolution;
// they are emitted in dependency order, so reading src is always valid.
type slotOp struct {
	src   valRef
	xform func(any) any
	dst   int32
}

// planGuard is one compiled data constraint. opsEnd is the prefix of the
// guard op list that must have run before this guard reads its input,
// preserving the interpreter's evaluation (and error) order.
type planGuard struct {
	src    valRef
	pred   func(any) bool
	name   string
	opsEnd int32
}

// outOp is one external effect of firing: a delivery to a boundary sink
// port or a deferred cell write, in the original action order. opsEnd is
// the prefix of the exec op list needed before reading src.
type outOp struct {
	src     valRef
	xform   func(any) any
	port    PortID
	cell    CellID
	deliver bool
	opsEnd  int32
	err     error // non-nil for actions the interpreter rejects at fire time
}

// Plan is a compiled transition: pre-resolved guard and action steps with
// preallocated scratch, firing with zero steady-state allocations.
// A Plan is not safe for concurrent use; Execute must only follow a
// successful CheckGuards on the same pending-operation snapshot.
type Plan struct {
	// Sync is the synchronization set of the compiled transition.
	Sync BitSet
	// T is the source transition (diagnostics only).
	T *Transition

	guardOps []slotOp
	guards   []planGuard
	execOps  []slotOp
	outs     []outOp
	scratch  []any
	outVals  []any

	// nativeGuards and nativeExec, on a plan built by NativePlan, stand in
	// for the compiled steps above (which it has none of).
	nativeGuards func() bool
	nativeExec   func()
}

// NativePlan returns a plan over sync whose guard conjunction and data
// actions are Go code instead of compiled steps: CheckGuards reports
// guards() and Execute runs exec(), neither of which can fail. Either may
// be nil (no guards / no actions). The closures reach the pending values,
// cells and deliveries through whatever context they captured; the engine
// lowers the transitions of generated region templates this way, so they
// fire through the same loop as compiled ones.
func NativePlan(sync BitSet, guards func() bool, exec func()) *Plan {
	return &Plan{Sync: sync, nativeGuards: guards, nativeExec: exec}
}

// planCompiler carries the state of one plan compilation.
type planCompiler struct {
	t         *Transition
	dirOf     func(PortID) Dir
	slots     map[PortID]int32
	resolving map[PortID]bool
	ops       *[]slotOp
	numSlots  int32
}

// CompilePlan compiles t into a Plan. dirOf classifies ports: source ports
// read pending send values, sink ports receive deliveries, and all other
// ports are internal vertices resolved through the transition's own action
// chain — exactly the interpreter's rules, but decided once here instead of
// per fire. Resolution failures (causal cycles, undefined ports) are
// recorded and surface with the interpreter's error messages only if the
// failing value is actually read, matching lazy behavior.
func CompilePlan(t *Transition, dirOf func(PortID) Dir) *Plan {
	p := &Plan{Sync: t.Sync, T: t}
	c := &planCompiler{
		t:         t,
		dirOf:     dirOf,
		slots:     make(map[PortID]int32),
		resolving: make(map[PortID]bool),
	}

	// Guard phase: resolve each guard input in order.
	c.ops = &p.guardOps
	for i := range t.Guards {
		g := &t.Guards[i]
		src := c.resolve(g.In)
		p.guards = append(p.guards, planGuard{
			src:    src,
			pred:   g.Pred,
			name:   g.Name,
			opsEnd: int32(len(p.guardOps)),
		})
	}

	// Output phase: external effects in original action order. Slots
	// computed during the guard phase are reused; new chains needed only
	// by outputs land in execOps.
	c.ops = &p.execOps
	for i := range t.Acts {
		act := &t.Acts[i]
		switch act.Dst.Kind {
		case LocPort:
			if c.dirOf(act.Dst.Port) != DirSink {
				continue // hidden destination: feeds chains only
			}
			src := c.resolve(act.Src)
			p.outs = append(p.outs, outOp{
				src:     src,
				xform:   act.Xform,
				port:    act.Dst.Port,
				deliver: true,
				opsEnd:  int32(len(p.execOps)),
			})
		case LocCell:
			src := c.resolve(act.Src)
			p.outs = append(p.outs, outOp{
				src:    src,
				xform:  act.Xform,
				cell:   act.Dst.Cell,
				opsEnd: int32(len(p.execOps)),
			})
		case LocConst:
			p.outs = append(p.outs, outOp{
				opsEnd: int32(len(p.execOps)),
				err:    fmt.Errorf("ca: constant as action destination"),
			})
		}
	}

	p.scratch = make([]any, c.numSlots)
	p.outVals = make([]any, len(p.outs))
	return p
}

// resolve compiles a Loc into a valRef, emitting slot ops for hidden-port
// chains. Mirrors Env.Value/Env.portValue: source ports read pending
// values; other ports are defined by the first action targeting them.
func (c *planCompiler) resolve(l Loc) valRef {
	switch l.Kind {
	case LocConst:
		return valRef{kind: refConst, c: l.Const}
	case LocCell:
		return valRef{kind: refCell, cell: l.Cell}
	case LocPort:
		return c.resolvePort(l.Port)
	}
	return valRef{kind: refErr, err: fmt.Errorf("ca: invalid location kind %d", l.Kind)}
}

func (c *planCompiler) resolvePort(p PortID) valRef {
	if c.dirOf(p) == DirSource {
		return valRef{kind: refPort, port: p}
	}
	if s, ok := c.slots[p]; ok {
		return valRef{kind: refSlot, slot: s}
	}
	if c.resolving[p] {
		return valRef{kind: refErr, err: fmt.Errorf("ca: causal cycle through port %d in transition data flow", p)}
	}
	for i := range c.t.Acts {
		act := &c.t.Acts[i]
		if act.Dst.Kind != LocPort || act.Dst.Port != p {
			continue
		}
		c.resolving[p] = true
		src := c.resolve(act.Src)
		delete(c.resolving, p)
		if src.kind == refErr {
			return src
		}
		slot := c.numSlots
		c.numSlots++
		*c.ops = append(*c.ops, slotOp{src: src, xform: act.Xform, dst: slot})
		c.slots[p] = slot
		return valRef{kind: refSlot, slot: slot}
	}
	return valRef{kind: refErr, err: fmt.Errorf("ca: no value defined for port %d in transition", p)}
}

// read resolves a compiled reference at fire time.
func (p *Plan) read(r *valRef, cells []any, host PlanHost) (any, error) {
	switch r.kind {
	case refConst:
		return r.c, nil
	case refCell:
		return cells[r.cell], nil
	case refPort:
		return host.PlanPortVal(r.port), nil
	case refSlot:
		return p.scratch[r.slot], nil
	}
	return nil, r.err
}

// runOps executes ops[from:to] into the scratch array.
func (p *Plan) runOps(ops []slotOp, from, to int32, cells []any, host PlanHost) (int32, error) {
	for ; from < to; from++ {
		op := &ops[from]
		v, err := p.read(&op.src, cells, host)
		if err != nil {
			return from, err
		}
		if op.xform != nil {
			v = op.xform(v)
		}
		p.scratch[op.dst] = v
	}
	return from, nil
}

// CheckGuards evaluates the compiled guards. Chain steps run interleaved
// with guard reads in the interpreter's order, so which guard fails — or
// which resolution error surfaces first — is unchanged.
func (p *Plan) CheckGuards(cells []any, host PlanHost) (bool, error) {
	if p.nativeGuards != nil {
		return p.nativeGuards(), nil
	}
	var done int32
	for i := range p.guards {
		g := &p.guards[i]
		var err error
		done, err = p.runOps(p.guardOps, done, g.opsEnd, cells, host)
		if err != nil {
			p.Reset()
			return false, err
		}
		v, err := p.read(&g.src, cells, host)
		if err != nil {
			p.Reset()
			return false, err
		}
		if !g.pred(v) {
			p.Reset()
			return false, nil
		}
	}
	return true, nil
}

// Reset drops references to the last fire's data values, so plans kept
// with their cluster do not pin user payloads between fires.
// CheckGuards resets on a false/error outcome itself; after a true
// outcome the guard-phase slots must survive until Execute, so the
// caller resets once the firing attempt is over.
func (p *Plan) Reset() {
	for i := range p.scratch {
		p.scratch[i] = nil
	}
	for i := range p.outVals {
		p.outVals[i] = nil
	}
}

// Execute fires the compiled actions: it computes every output value (all
// cell reads see pre-step cell contents), then performs deliveries through
// the host and finally the deferred cell writes — the same simultaneity
// semantics as the interpreter's FireResult, without building maps.
//
// Execute must follow a successful CheckGuards on the same
// pending-operation snapshot: guard-phase scratch slots are reused, not
// recomputed, so each data function runs exactly once per fire — the
// interpreter's memoization semantics, which matters for stateful or
// expensive transformations.
func (p *Plan) Execute(cells []any, host PlanHost) error {
	if p.nativeExec != nil {
		p.nativeExec()
		return nil
	}
	var done int32
	for i := range p.outs {
		o := &p.outs[i]
		var err error
		done, err = p.runOps(p.execOps, done, o.opsEnd, cells, host)
		if err != nil {
			return err
		}
		if o.err != nil {
			return o.err
		}
		v, err := p.read(&o.src, cells, host)
		if err != nil {
			return err
		}
		if o.xform != nil {
			v = o.xform(v)
		}
		p.outVals[i] = v
	}
	for i := range p.outs {
		if p.outs[i].deliver {
			host.PlanDeliver(p.outs[i].port, p.outVals[i])
		}
	}
	for i := range p.outs {
		if !p.outs[i].deliver {
			cells[p.outs[i].cell] = p.outVals[i]
		}
	}
	return nil
}

// Slots returns the number of scratch slots the plan allocates — the
// compiled size of the transition's hidden data-flow chains.
func (p *Plan) Slots() int { return len(p.scratch) }

// Guards returns the number of compiled guards.
func (p *Plan) Guards() int { return len(p.guards) }

// Deliveries returns how many sink-port deliveries the plan performs.
func (p *Plan) Deliveries() int {
	n := 0
	for i := range p.outs {
		if p.outs[i].deliver {
			n++
		}
	}
	return n
}

// CellWrites returns how many deferred cell writes the plan performs.
func (p *Plan) CellWrites() int { return len(p.outs) - p.Deliveries() }

// Dump renders the compiled plan for diagnostics (cmd/reoc plan).
func (p *Plan) Dump(u *Universe) string {
	var sb strings.Builder
	sb.WriteString("{" + strings.Join(u.PortSetNames(p.Sync), ",") + "}")
	fmt.Fprintf(&sb, " slots=%d", p.Slots())
	for i := range p.guards {
		g := &p.guards[i]
		fmt.Fprintf(&sb, " [%s(%s)]", g.name, p.refStr(u, &g.src))
	}
	for i := range p.outs {
		o := &p.outs[i]
		switch {
		case o.err != nil:
			fmt.Fprintf(&sb, " <error: %v>", o.err)
		case o.deliver:
			fmt.Fprintf(&sb, " %s!=%s", u.Name(o.port), p.refStr(u, &o.src))
		default:
			fmt.Fprintf(&sb, " cell%d:=%s", o.cell, p.refStr(u, &o.src))
		}
	}
	return sb.String()
}

func (p *Plan) refStr(u *Universe, r *valRef) string {
	switch r.kind {
	case refConst:
		return fmt.Sprintf("%v", r.c)
	case refCell:
		return fmt.Sprintf("cell%d", r.cell)
	case refPort:
		return u.Name(r.port)
	case refSlot:
		return fmt.Sprintf("s%d", r.slot)
	}
	return fmt.Sprintf("<error: %v>", r.err)
}
