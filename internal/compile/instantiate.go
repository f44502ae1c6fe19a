package compile

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/ca"
	"repro/internal/prim"
)

// Assembly is a fully instantiated connector: concrete constituent
// automata over a fresh instance universe, with boundary ports bound to
// the definition's parameters. It is the input to engine construction.
type Assembly struct {
	U    *ca.Universe
	Auts []*ca.Automaton
	// Tails/Heads map parameter names to their instance ports in array
	// order (index 0 holds element 1). Scalars have one port.
	Tails map[string][]ca.PortID
	Heads map[string][]ca.PortID
}

// InstBuilder accumulates instance automata and vertex-role bookkeeping
// during instantiation.
type InstBuilder struct {
	u       *ca.Universe
	auts    []*ca.Automaton
	readers map[ca.PortID][]int
	writers map[ca.PortID][]int
	instSeq int
}

func newInstBuilder() *InstBuilder {
	return &InstBuilder{
		u:       ca.NewUniverse(),
		readers: make(map[ca.PortID][]int),
		writers: make(map[ca.PortID][]int),
	}
}

func (b *InstBuilder) add(a *ca.Automaton, reads, writes []ca.PortID) {
	idx := len(b.auts)
	b.auts = append(b.auts, a)
	for _, p := range reads {
		b.readers[p] = append(b.readers[p], idx)
	}
	for _, p := range writes {
		b.writers[p] = append(b.writers[p], idx)
	}
}

// ienv is the instantiation environment: iteration-variable values and
// array lengths.
type ienv struct {
	vars    map[string]int
	lengths map[string]int
}

func evalInt(e ast.IntExpr, env *ienv) (int, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Val, nil
	case *ast.VarRef:
		v, ok := env.vars[e.Name]
		if !ok {
			return 0, fmt.Errorf("%s: unbound variable %q", e.Pos, e.Name)
		}
		return v, nil
	case *ast.LenOf:
		n, ok := env.lengths[e.Name]
		if !ok {
			return 0, fmt.Errorf("%s: no length given for array %q", e.Pos, e.Name)
		}
		return n, nil
	case *ast.BinInt:
		l, err := evalInt(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := evalInt(e.R, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("%s: division by zero", e.Pos)
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("%s: modulo by zero", e.Pos)
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("%s: unknown operator %q", e.Pos, e.Op)
	}
	return 0, fmt.Errorf("unknown integer expression %T", e)
}

func evalBool(e ast.BoolExpr, env *ienv) (bool, error) {
	switch e := e.(type) {
	case *ast.Cmp:
		l, err := evalInt(e.L, env)
		if err != nil {
			return false, err
		}
		r, err := evalInt(e.R, env)
		if err != nil {
			return false, err
		}
		switch e.Op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
		return false, fmt.Errorf("%s: unknown comparison %q", e.Pos, e.Op)
	case *ast.BoolBin:
		l, err := evalBool(e.L, env)
		if err != nil {
			return false, err
		}
		if e.Op == "&&" && !l {
			return false, nil
		}
		if e.Op == "||" && l {
			return true, nil
		}
		return evalBool(e.R, env)
	case *ast.Not:
		v, err := evalBool(e.X, env)
		return !v, err
	}
	return false, fmt.Errorf("unknown condition %T", e)
}

// instPortName renders the canonical instance vertex name.
func instPortName(name string, idxs []int) string {
	out := name
	for _, i := range idxs {
		out += fmt.Sprintf("[%d]", i)
	}
	return out
}

func evalPortArg(a ast.PortArg, env *ienv) (string, error) {
	idxs := make([]int, 0, len(a.Indices))
	for _, e := range a.Indices {
		v, err := evalInt(e, env)
		if err != nil {
			return "", err
		}
		idxs = append(idxs, v)
	}
	return instPortName(a.Name, idxs), nil
}

// Instantiate evaluates the template for concrete array lengths,
// producing the connector instance's constituent automata. This is the
// run-time share of the parametrized compilation approach: the loops and
// conditionals recorded at compile time execute now, stamping out medium
// automata (§IV-D, Fig. 10's connect method).
func (t *Template) Instantiate(lengths map[string]int) (*Assembly, error) {
	env := &ienv{vars: make(map[string]int), lengths: make(map[string]int)}
	for _, p := range t.ArrayParams() {
		n, ok := lengths[p]
		if !ok {
			return nil, fmt.Errorf("compile: no length for array parameter %q of %q", p, t.Name)
		}
		if n < 1 {
			return nil, fmt.Errorf("compile: length %d for array parameter %q must be >= 1 (arrays are nonempty)", n, p)
		}
		env.lengths[p] = n
	}
	for p := range lengths {
		if _, ok := env.lengths[p]; !ok {
			return nil, fmt.Errorf("compile: %q is not an array parameter of %q", p, t.Name)
		}
	}

	b := newInstBuilder()
	asm := &Assembly{
		Tails: make(map[string][]ca.PortID),
		Heads: make(map[string][]ca.PortID),
	}
	bind := func(params []ast.Param, out map[string][]ca.PortID, dir ca.Dir) {
		for _, p := range params {
			if p.IsArray {
				n := env.lengths[p.Name]
				for i := 1; i <= n; i++ {
					id := b.u.Port(instPortName(p.Name, []int{i}))
					b.u.SetDir(id, dir)
					out[p.Name] = append(out[p.Name], id)
				}
			} else {
				id := b.u.Port(p.Name)
				b.u.SetDir(id, dir)
				out[p.Name] = append(out[p.Name], id)
			}
		}
	}
	bind(t.Tails, asm.Tails, ca.DirSource)
	bind(t.Heads, asm.Heads, ca.DirSink)

	for _, nd := range t.nodes {
		if err := nd.instantiate(b, env); err != nil {
			return nil, err
		}
	}
	if len(b.auts) == 0 {
		return nil, fmt.Errorf("compile: connector %q instantiates to an empty composition", t.Name)
	}
	if err := b.resolveNodes(); err != nil {
		return nil, err
	}

	asm.U = b.u
	asm.Auts = b.auts
	return asm, nil
}

func (m *medNode) instantiate(b *InstBuilder, env *ienv) error {
	b.instSeq++
	prefix := fmt.Sprintf("inst%d", b.instSeq)
	portMap := make(map[ca.PortID]ca.PortID, len(m.ports))
	for _, mp := range m.ports {
		tp, sp := mp.tp, mp.sym
		if sp.private {
			portMap[tp] = b.u.FreshPort(prefix + "/" + sp.name)
			continue
		}
		idxs := make([]int, 0, len(sp.indices))
		for _, e := range sp.indices {
			v, err := evalInt(e, env)
			if err != nil {
				return err
			}
			idxs = append(idxs, v)
		}
		portMap[tp] = b.u.Port(instPortName(sp.name, idxs))
	}
	for k, aut := range m.auts {
		inst, full := ca.InstantiateInto(aut, b.u, portMap, prefix)
		var reads, writes []ca.PortID
		m.reads[k].ForEach(func(p ca.PortID) {
			if q, ok := full[p]; ok {
				reads = append(reads, q)
			}
		})
		m.writes[k].ForEach(func(p ca.PortID) {
			if q, ok := full[p]; ok {
				writes = append(writes, q)
			}
		})
		b.add(inst, reads, writes)
	}
	return nil
}

func (d *dynPrimNode) instantiate(b *InstBuilder, env *ienv) error {
	expand := func(args []ast.PortArg) ([]ca.PortID, error) {
		var out []ca.PortID
		for _, a := range args {
			if a.IsRange {
				lo, err := evalInt(a.Lo, env)
				if err != nil {
					return nil, err
				}
				hi, err := evalInt(a.Hi, env)
				if err != nil {
					return nil, err
				}
				if hi < lo {
					return nil, fmt.Errorf("%s: empty range %d..%d", a.Pos, lo, hi)
				}
				for i := lo; i <= hi; i++ {
					out = append(out, b.u.Port(instPortName(a.Name, []int{i})))
				}
				continue
			}
			name, err := evalPortArg(a, env)
			if err != nil {
				return nil, err
			}
			out = append(out, b.u.Port(name))
		}
		return out, nil
	}
	tails, err := expand(d.inv.Tails)
	if err != nil {
		return err
	}
	heads, err := expand(d.inv.Heads)
	if err != nil {
		return err
	}
	aut, err := MakePrim(b.u, d.inv.Name, d.inv.Attr, tails, heads, d.funcs)
	if err != nil {
		return fmt.Errorf("%s: %w", d.inv.Pos, err)
	}
	b.add(aut, tails, heads)
	return nil
}

func (p *prodNode) instantiate(b *InstBuilder, env *ienv) error {
	lo, err := evalInt(p.lo, env)
	if err != nil {
		return err
	}
	hi, err := evalInt(p.hi, env)
	if err != nil {
		return err
	}
	saved, had := env.vars[p.v]
	for i := lo; i <= hi; i++ {
		env.vars[p.v] = i
		for _, nd := range p.body {
			if err := nd.instantiate(b, env); err != nil {
				return err
			}
		}
	}
	if had {
		env.vars[p.v] = saved
	} else {
		delete(env.vars, p.v)
	}
	return nil
}

func (n *ifNode) instantiate(b *InstBuilder, env *ienv) error {
	c, err := evalBool(n.cond, env)
	if err != nil {
		return err
	}
	branch := n.then
	if !c {
		branch = n.els8
	}
	for _, nd := range branch {
		if err := nd.instantiate(b, env); err != nil {
			return err
		}
	}
	return nil
}

// resolveNodes applies Reo node semantics to shared vertices: a vertex
// written by several producers (constituent automata and/or a
// task-attached source port) gets an explicit nondeterministic merger;
// multiple readers need nothing extra (the synchronous product already
// replicates data to every reader).
func (b *InstBuilder) resolveNodes() error {
	// Deterministic order: sort the multi-writer vertices.
	var multi []ca.PortID
	for v, ws := range b.writers {
		total := len(ws)
		if b.u.DirOf(v) == ca.DirSource {
			total++ // the attached task is a writer too
		}
		if total > 1 {
			multi = append(multi, v)
		}
	}
	sort.Slice(multi, func(i, j int) bool { return multi[i] < multi[j] })

	for _, v := range multi {
		ws := b.writers[v]
		for _, k := range ws {
			for _, r := range b.readers[v] {
				if r == k {
					return fmt.Errorf(
						"compile: vertex %q is both read and written by the same composed constituent and has other writers; restructure the connector",
						b.u.Name(v))
				}
			}
		}
		var ins []ca.PortID
		for _, k := range ws {
			w := b.u.FreshPort("node/" + b.u.Name(v))
			b.auts[k] = ca.RemapPorts(b.auts[k], map[ca.PortID]ca.PortID{v: w})
			b.writers[w] = []int{k}
			ins = append(ins, w)
		}
		delete(b.writers, v)

		out := v
		if b.u.DirOf(v) == ca.DirSource {
			// The task keeps writing v; v joins the merger inputs, and
			// readers move to a fresh merged vertex.
			ins = append(ins, v)
			out = b.u.FreshPort("node-out/" + b.u.Name(v))
			for _, r := range b.readers[v] {
				b.auts[r] = ca.RemapPorts(b.auts[r], map[ca.PortID]ca.PortID{v: out})
			}
			b.readers[out] = b.readers[v]
			delete(b.readers, v)
		}

		idx := len(b.auts)
		b.auts = append(b.auts, prim.Merger(b.u, ins, out))
		for _, w := range ins {
			b.readers[w] = append(b.readers[w], idx)
		}
		b.writers[out] = append(b.writers[out], idx)
	}
	return nil
}
