package ca

import (
	"fmt"
	"strings"
)

// LocKind discriminates the kinds of data locations an Action can name.
type LocKind uint8

const (
	// LocPort names a vertex. If the vertex is a boundary source port its
	// value is the pending send value; if it is hidden, its value is
	// defined by another action of the same transition (a data-flow
	// chain), resolved lazily unless the automaton has been simplified.
	LocPort LocKind = iota
	// LocCell names a memory cell.
	LocCell
	// LocConst is an immediate value (valid as a source only).
	LocConst
)

// Loc is a data location: a port, a cell, or a constant.
type Loc struct {
	Kind  LocKind
	Port  PortID
	Cell  CellID
	Const any
}

// PortLoc returns a Loc naming port p.
func PortLoc(p PortID) Loc { return Loc{Kind: LocPort, Port: p} }

// CellLoc returns a Loc naming cell c.
func CellLoc(c CellID) Loc { return Loc{Kind: LocCell, Cell: c} }

// ConstLoc returns a Loc holding the immediate value v.
func ConstLoc(v any) Loc { return Loc{Kind: LocConst, Const: v} }

// Action is one data assignment performed when a transition fires:
// Dst receives Xform(value of Src) (identity if Xform is nil).
type Action struct {
	Dst   Loc
	Src   Loc
	Xform func(any) any
	// XformNames lists the registry names whose composition Xform is,
	// outermost first (a single name for a Transformer.* primitive;
	// longer when Simplify contracted a transformer chain into one
	// action). The engine never reads it; the static code generator
	// (internal/gen) uses it to re-emit the composition by name, since a
	// func value cannot be rendered as source code. A non-nil Xform with
	// an empty XformNames marks an anonymous transformation, which the
	// generator rejects.
	XformNames []string
}

// Guard is a data constraint: the transition may fire only if Pred holds
// of the value observed at In.
type Guard struct {
	In   Loc
	Pred func(any) bool
	// Name is a diagnostic label (e.g. the registered filter name).
	Name string
	// XformNames lists the registered transformations Pred applies to
	// the observed value before the named filter, outermost first —
	// non-empty only when Simplify folded a transformer chain into the
	// predicate. The static code generator re-emits the fold by name; a
	// fold of anonymous transformations is marked by a single empty
	// string, which the generator rejects.
	XformNames []string
}

// Transition is one execution step of an automaton.
type Transition struct {
	Target int32
	// Sync is the set of ports through which data flows in this step.
	// After Hide it contains only non-hidden ports; a transition whose
	// Sync is empty is an internal (τ) step the engine may fire
	// spontaneously.
	Sync BitSet
	// Guards must all hold for the transition to be enabled.
	Guards []Guard
	// Acts are the data assignments performed on firing.
	Acts []Action
}

// Automaton is a constraint automaton with data over a Universe.
// It is immutable once built; run-time cell contents live in the engine.
type Automaton struct {
	Name    string
	U       *Universe
	Ports   BitSet // every port occurring in any Sync (visible alphabet)
	Initial int32
	Trans   [][]Transition // indexed by state
}

// NumStates returns the number of control states.
func (a *Automaton) NumStates() int { return len(a.Trans) }

// PadToUniverse widens the automaton's bit sets to the universe's current
// port count. Universes grow while a connector instance is assembled
// (fresh internal vertices, node mergers), so automata built early can
// have shorter bit sets than automata built late; every composition entry
// point pads first so that set operations line up. Padding is the
// identity on the represented sets and idempotent.
func (a *Automaton) PadToUniverse() {
	w := (a.U.NumPorts() + 63) / 64
	a.Ports = padSet(a.Ports, w)
	for s := range a.Trans {
		for i := range a.Trans[s] {
			a.Trans[s][i].Sync = padSet(a.Trans[s][i].Sync, w)
		}
	}
}

func padSet(b BitSet, w int) BitSet {
	if len(b) >= w {
		return b
	}
	nb := make(BitSet, w)
	copy(nb, b)
	return nb
}

// NumTransitions returns the total transition count across all states.
func (a *Automaton) NumTransitions() int {
	n := 0
	for _, ts := range a.Trans {
		n += len(ts)
	}
	return n
}

// Env supplies values for data locations during guard evaluation and
// transition firing.
//   - Boundary source ports resolve to pending send values.
//   - Hidden ports resolve through the transition's own action chain.
//   - Cells resolve to the instance cell store.
//
// Env is the reference interpreter for transition semantics: it resolves
// data-flow chains lazily, allocating memo maps per fire. The engine's hot
// path uses compiled Plans instead (see plan.go), which must agree with
// Env observably; Env remains for simplification, tests, and as the
// executable specification the plan compiler is checked against.
type Env struct {
	t *Transition
	// PortVal returns the pending value on a boundary source port.
	PortVal func(PortID) any
	// Cells is the instance cell store.
	Cells []any
	// scratch memoizes resolved hidden-port values.
	scratch map[PortID]any
	// resolving detects causality cycles in action chains.
	resolving map[PortID]bool
	// IsSource reports whether the port is a boundary source port.
	IsSource func(PortID) bool
}

// NewEnv prepares an evaluation environment for firing t.
func NewEnv(t *Transition, cells []any, isSource func(PortID) bool, portVal func(PortID) any) *Env {
	return &Env{t: t, PortVal: portVal, Cells: cells, IsSource: isSource}
}

// Value resolves the data value at l.
func (e *Env) Value(l Loc) (any, error) {
	switch l.Kind {
	case LocConst:
		return l.Const, nil
	case LocCell:
		return e.Cells[l.Cell], nil
	case LocPort:
		return e.portValue(l.Port)
	}
	return nil, fmt.Errorf("ca: invalid location kind %d", l.Kind)
}

func (e *Env) portValue(p PortID) (any, error) {
	if e.IsSource != nil && e.IsSource(p) {
		return e.PortVal(p), nil
	}
	if e.scratch != nil {
		if v, ok := e.scratch[p]; ok {
			return v, nil
		}
	}
	if e.resolving[p] {
		return nil, fmt.Errorf("ca: causal cycle through port %d in transition data flow", p)
	}
	// Find the action that defines this (hidden or sink) port and
	// evaluate its source recursively. This is the unsimplified, lazy
	// resolution path; Simplify removes the need for it.
	for i := range e.t.Acts {
		act := &e.t.Acts[i]
		if act.Dst.Kind == LocPort && act.Dst.Port == p {
			if e.resolving == nil {
				e.resolving = make(map[PortID]bool)
			}
			e.resolving[p] = true
			v, err := e.Value(act.Src)
			delete(e.resolving, p)
			if err != nil {
				return nil, err
			}
			if act.Xform != nil {
				v = act.Xform(v)
			}
			if e.scratch == nil {
				e.scratch = make(map[PortID]any)
			}
			e.scratch[p] = v
			return v, nil
		}
	}
	return nil, fmt.Errorf("ca: no value defined for port %d in transition", p)
}

// CheckGuards evaluates all guards of t under e.
func (e *Env) CheckGuards() (bool, error) {
	for i := range e.t.Guards {
		g := &e.t.Guards[i]
		v, err := e.Value(g.In)
		if err != nil {
			return false, err
		}
		if !g.Pred(v) {
			return false, nil
		}
	}
	return true, nil
}

// FireResult is the outcome of executing a transition's data actions.
type FireResult struct {
	// Delivered maps sink ports to the value each must hand to its
	// pending receive operation.
	Delivered map[PortID]any
	// CellWrites are deferred cell updates (applied after all reads, so
	// that simultaneous read+write of a cell within one step sees the
	// pre-step value).
	CellWrites map[CellID]any
}

// Execute runs the data actions of the transition under e, producing
// deliveries for sink ports and cell updates. Actions whose destination is
// a hidden port only feed chains and produce no external effect.
func (e *Env) Execute(isSink func(PortID) bool) (FireResult, error) {
	res := FireResult{Delivered: make(map[PortID]any), CellWrites: make(map[CellID]any)}
	for i := range e.t.Acts {
		act := &e.t.Acts[i]
		switch act.Dst.Kind {
		case LocPort:
			if isSink != nil && isSink(act.Dst.Port) {
				v, err := e.Value(act.Src)
				if err != nil {
					return res, err
				}
				if act.Xform != nil {
					v = act.Xform(v)
				}
				res.Delivered[act.Dst.Port] = v
			}
			// Hidden destinations are resolved on demand via portValue.
		case LocCell:
			v, err := e.Value(act.Src)
			if err != nil {
				return res, err
			}
			if act.Xform != nil {
				v = act.Xform(v)
			}
			res.CellWrites[act.Dst.Cell] = v
		case LocConst:
			return res, fmt.Errorf("ca: constant as action destination")
		}
	}
	return res, nil
}

// String renders the automaton for debugging.
func (a *Automaton) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "automaton %q: %d states, initial %d\n", a.Name, a.NumStates(), a.Initial)
	for s, ts := range a.Trans {
		for _, t := range ts {
			names := a.U.PortSetNames(t.Sync)
			fmt.Fprintf(&sb, "  %d --%v--> %d (%d acts, %d guards)\n", s, names, t.Target, len(t.Acts), len(t.Guards))
		}
	}
	return sb.String()
}
