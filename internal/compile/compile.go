package compile

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/ca"
	"repro/internal/flatten"
	"repro/internal/normalize"
	"repro/internal/prim"
	"repro/internal/sema"
)

// Funcs supplies the data functions referenced by Filter.* and
// Transformer.* primitives.
//
// Both kinds must be pure: deterministic in their argument and free of
// observable side effects. The engine relies on this — guards are
// evaluated once per dispatch opportunity (not re-polled while nothing
// changes), transformations exactly once per fired step — so an impure
// function can make enablement decisions stale or observe surprising
// call counts.
type Funcs struct {
	Filters      map[string]func(any) bool
	Transformers map[string]func(any) any
}

// Options control compile-time composition.
type Options struct {
	// Simplify applies transition-label simplification to each medium
	// automaton (§V-B point 1; the E7 ablation toggles this).
	Simplify bool
	// Limits bound compile-time products; a section whose product would
	// exceed them is left as separate constituents (graceful fallback).
	Limits ca.ProductLimits
}

// Template is a compiled, still-parametric connector.
type Template struct {
	Name  string
	Tails []ast.Param
	Heads []ast.Param

	nodes []node
	funcs Funcs
	opts  Options

	// Flat and Norm keep the intermediate forms for inspection
	// (cmd/reoc, tests).
	Flat ast.Expr
	Norm ast.Expr
}

// ArrayParams returns the names of array parameters (which need lengths
// at instantiation).
func (t *Template) ArrayParams() []string {
	var out []string
	for _, p := range append(append([]ast.Param{}, t.Tails...), t.Heads...) {
		if p.IsArray {
			out = append(out, p.Name)
		}
	}
	return out
}

// Build compiles the named definition.
func Build(info *sema.Info, name string, funcs Funcs, opts Options) (*Template, error) {
	di, ok := info.Defs[name]
	if !ok {
		return nil, fmt.Errorf("compile: unknown definition %q", name)
	}
	flat, err := flatten.Flatten(info, name)
	if err != nil {
		return nil, err
	}
	norm := normalize.Normalize(flat)

	t := &Template{
		Name:  name,
		Tails: di.Def.Tails,
		Heads: di.Def.Heads,
		funcs: funcs,
		opts:  opts,
		Flat:  flat,
		Norm:  norm,
	}

	c := &compiler{
		tmpl:   t,
		params: make(map[string]bool),
		usage:  make(map[string]map[int]bool),
	}
	for _, p := range di.Def.Params() {
		c.params[p.Name] = true
	}

	root := c.collectLevel(norm, nil)
	c.recordUsage(root)
	t.nodes, err = c.buildLevel(root)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// rawLevel is one normalized composition level before automaton building.
type rawLevel struct {
	id      int
	encl    []string // enclosing iteration variables, outermost first
	invokes []*ast.Invoke
	prods   []*rawProd
	ifs     []*rawIf
}

type rawProd struct {
	v      string
	lo, hi ast.IntExpr
	body   *rawLevel
}

type rawIf struct {
	cond       ast.BoolExpr
	then, els8 *rawLevel // els8 may be nil
}

type compiler struct {
	tmpl   *Template
	params map[string]bool
	nextID int
	usage  map[string]map[int]bool // vertex name -> level ids using it
}

func (c *compiler) collectLevel(e ast.Expr, encl []string) *rawLevel {
	lvl := &rawLevel{id: c.nextID, encl: append([]string(nil), encl...)}
	c.nextID++
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Mult:
			for _, f := range e.Factors {
				walk(f)
			}
		case *ast.Invoke:
			lvl.invokes = append(lvl.invokes, e)
		case *ast.Prod:
			body := c.collectLevel(e.Body, append(encl, e.Var))
			lvl.prods = append(lvl.prods, &rawProd{v: e.Var, lo: e.Lo, hi: e.Hi, body: body})
		case *ast.If:
			ri := &rawIf{cond: e.Cond, then: c.collectLevel(e.Then, encl)}
			if e.Else != nil {
				ri.els8 = c.collectLevel(e.Else, encl)
			}
			lvl.ifs = append(lvl.ifs, ri)
		}
	}
	walk(e)
	return lvl
}

// dynUsageID is the pseudo-level charged with the vertices of dynamic
// (length-dependent) invocations: such vertices are instantiated by name
// and must never be treated as private to a medium.
const dynUsageID = -1

func (c *compiler) recordUsage(lvl *rawLevel) {
	note := func(a ast.PortArg, id int) {
		if c.usage[a.Name] == nil {
			c.usage[a.Name] = make(map[int]bool)
		}
		c.usage[a.Name][id] = true
	}
	for _, inv := range lvl.invokes {
		id := lvl.id
		if isDynamic(inv) {
			id = dynUsageID
		}
		for _, a := range inv.Tails {
			note(a, id)
		}
		for _, a := range inv.Heads {
			note(a, id)
		}
	}
	for _, p := range lvl.prods {
		c.recordUsage(p.body)
	}
	for _, i := range lvl.ifs {
		c.recordUsage(i.then)
		if i.els8 != nil {
			c.recordUsage(i.els8)
		}
	}
}

// privateTo reports whether vertex name occurs only in level id and is not
// a parameter.
func (c *compiler) privateTo(name string, id int) bool {
	if c.params[name] {
		return false
	}
	uses := c.usage[name]
	return len(uses) == 1 && uses[id]
}

// node is one instantiation step of the template (cf. the body of
// Fig. 10's connect method).
type node interface {
	instantiate(b *InstBuilder, env *ienv) error
}

// symPort is a symbolic vertex: a name plus index expressions evaluated at
// instantiation.
type symPort struct {
	name    string
	indices []ast.IntExpr
	private bool // resolved to a fresh vertex per medium instantiation
}

func (s symPort) String() string {
	var sb strings.Builder
	sb.WriteString(s.name)
	for _, ix := range s.indices {
		fmt.Fprintf(&sb, "[%s]", ast.Render(ix))
	}
	return sb.String()
}

// medNode is a compile-time-composed medium automaton template.
type medNode struct {
	// auts usually holds one automaton (the section product); several if
	// composition was skipped (size fallback or shared-writer safety).
	auts []*ca.Automaton
	u    *ca.Universe
	// ports lists the template ports interned or inserted here with their
	// symbolic form, in port order: instantiation creates the instance
	// ports in this order, so it numbers them alike on every run.
	ports []medPort
	// reads/writes record per-automaton roles (parallel to auts).
	reads  []ca.BitSet
	writes []ca.BitSet
}

// medPort is one entry of medNode.ports.
type medPort struct {
	tp  ca.PortID
	sym symPort
}

// dynPrimNode is a primitive whose arity depends on lengths (it has
// parametric range arguments); it is built directly at instantiation.
type dynPrimNode struct {
	inv   *ast.Invoke
	funcs Funcs
}

// prodNode defers a loop to instantiation time.
type prodNode struct {
	v      string
	lo, hi ast.IntExpr
	body   []node
}

// ifNode defers a conditional to instantiation time.
type ifNode struct {
	cond       ast.BoolExpr
	then, els8 []node
}

// buildLevel converts one rawLevel into instantiation nodes, composing
// the section's static constituents into a medium automaton.
func (c *compiler) buildLevel(lvl *rawLevel) ([]node, error) {
	var nodes []node
	var static []*ast.Invoke
	for _, inv := range lvl.invokes {
		if isDynamic(inv) {
			nodes = append(nodes, &dynPrimNode{inv: inv, funcs: c.tmpl.funcs})
		} else {
			static = append(static, inv)
		}
	}
	if len(static) > 0 {
		med, err := c.buildMedium(static, lvl)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, med)
	}
	for _, p := range lvl.prods {
		body, err := c.buildLevel(p.body)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &prodNode{v: p.v, lo: p.lo, hi: p.hi, body: body})
	}
	for _, i := range lvl.ifs {
		then, err := c.buildLevel(i.then)
		if err != nil {
			return nil, err
		}
		nd := &ifNode{cond: i.cond, then: then}
		if i.els8 != nil {
			nd.els8, err = c.buildLevel(i.els8)
			if err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// isDynamic reports whether the invocation's shape depends on lengths:
// it has a range argument with non-constant bounds.
func isDynamic(inv *ast.Invoke) bool {
	for _, a := range append(append([]ast.PortArg{}, inv.Tails...), inv.Heads...) {
		if a.IsRange {
			if _, ok := constInt(a.Lo); !ok {
				return true
			}
			if _, ok := constInt(a.Hi); !ok {
				return true
			}
		}
	}
	return false
}

func constInt(e ast.IntExpr) (int, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Val, true
	case *ast.BinInt:
		l, lok := constInt(e.L)
		r, rok := constInt(e.R)
		if !lok || !rok {
			return 0, false
		}
		switch e.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "%":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// buildMedium builds and composes the automata of a section's static
// constituents over a fresh template universe.
func (c *compiler) buildMedium(invs []*ast.Invoke, lvl *rawLevel) (*medNode, error) {
	tu := ca.NewUniverse()
	med := &medNode{u: tu}
	canon := make(map[string]ca.PortID)

	intern := func(a ast.PortArg) ca.PortID {
		key := a.String()
		if p, ok := canon[key]; ok {
			return p
		}
		p := tu.Port(key)
		canon[key] = p
		sp := symPort{name: a.Name, indices: a.Indices}
		sp.private = c.privateTo(a.Name, lvl.id) && indexPrefixMatches(a.Indices, lvl.encl)
		med.ports = append(med.ports, medPort{p, sp})
		return p
	}
	expand := func(args []ast.PortArg) ([]ca.PortID, error) {
		var out []ca.PortID
		for _, a := range args {
			if a.IsRange {
				lo, _ := constInt(a.Lo)
				hi, _ := constInt(a.Hi)
				for i := lo; i <= hi; i++ {
					out = append(out, intern(ast.PortArg{
						Name:    a.Name,
						Indices: []ast.IntExpr{&ast.IntLit{Val: i}},
						Pos:     a.Pos,
					}))
				}
				continue
			}
			out = append(out, intern(a))
		}
		return out, nil
	}

	type built struct {
		aut    *ca.Automaton
		reads  ca.BitSet
		writes ca.BitSet
	}
	var parts []built
	for _, inv := range invs {
		tails, err := expand(inv.Tails)
		if err != nil {
			return nil, err
		}
		heads, err := expand(inv.Heads)
		if err != nil {
			return nil, err
		}
		aut, err := MakePrim(tu, inv.Name, inv.Attr, tails, heads, c.tmpl.funcs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inv.Pos, err)
		}
		rd := tu.NewSet()
		wr := tu.NewSet()
		for _, p := range tails {
			rd.Set(p)
		}
		for _, p := range heads {
			wr.Set(p)
		}
		parts = append(parts, built{aut: aut, reads: rd, writes: wr})
	}

	// Section-local node resolution: a private vertex written by several
	// constituents needs a merger inserted *before* composition.
	writerCount := make(map[ca.PortID]int)
	for _, p := range parts {
		p.writes.ForEach(func(v ca.PortID) { writerCount[v]++ })
	}
	for _, mp := range med.ports {
		v, sp := mp.tp, mp.sym
		if writerCount[v] < 2 {
			continue
		}
		if !sp.private {
			// Possible external writers too; resolved at instantiation.
			continue
		}
		var ins []ca.PortID
		for i := range parts {
			if !parts[i].writes.Has(v) {
				continue
			}
			w := tu.FreshPort("mrg/" + tu.Name(v))
			med.ports = append(med.ports, medPort{w, symPort{name: tu.Name(w), private: true}})
			parts[i].aut = ca.RemapPorts(parts[i].aut, map[ca.PortID]ca.PortID{v: w})
			parts[i].writes.Clear(v)
			newW := tu.NewSet()
			parts[i].writes.ForEach(func(q ca.PortID) { newW.Set(q) })
			newW.Set(w)
			parts[i].writes = newW
			ins = append(ins, w)
		}
		m := prim.Merger(tu, ins, v)
		rd := tu.NewSet()
		for _, w := range ins {
			rd.Set(w)
		}
		wr := tu.NewSet()
		wr.Set(v)
		parts = append(parts, built{aut: m, reads: rd, writes: wr})
	}

	// Safety: constituents touching a non-private port that could need
	// instance-level node resolution stay out of the compile-time
	// product, so that resolution can remap each of them individually:
	//   - ports written by >= 2 section constituents (potential mergers),
	//   - ports both read and written within the section (a composed
	//     medium would count as reader *and* writer of the vertex, which
	//     node resolution cannot split).
	solo := make([]bool, len(parts))
	writerCount = make(map[ca.PortID]int)
	readerCount := make(map[ca.PortID]int)
	for _, p := range parts {
		p.writes.ForEach(func(v ca.PortID) { writerCount[v]++ })
		p.reads.ForEach(func(v ca.PortID) { readerCount[v]++ })
	}
	markSolo := func(v ca.PortID) {
		for i := range parts {
			if parts[i].writes.Has(v) || parts[i].reads.Has(v) {
				solo[i] = true
			}
		}
	}
	for _, mp := range med.ports {
		if mp.sym.private {
			continue
		}
		v, n := mp.tp, writerCount[mp.tp]
		if n >= 2 || (n >= 1 && readerCount[v] >= 1) {
			markSolo(v)
		}
	}

	var composable []*ca.Automaton
	composedReads := tu.NewSet()
	composedWrites := tu.NewSet()
	for i, p := range parts {
		if solo[i] {
			med.auts = append(med.auts, p.aut)
			med.reads = append(med.reads, p.reads)
			med.writes = append(med.writes, p.writes)
			continue
		}
		composable = append(composable, p.aut)
		composedReads.OrInto(p.reads)
		composedWrites.OrInto(p.writes)
	}
	if len(composable) > 0 {
		composed, err := ca.ProductAll(composable, ca.ExpandFull, c.tmpl.opts.Limits)
		if err != nil {
			// Fallback: leave the section uncomposed.
			for i, p := range parts {
				if !solo[i] {
					med.auts = append(med.auts, p.aut)
					med.reads = append(med.reads, p.reads)
					med.writes = append(med.writes, p.writes)
				}
			}
		} else {
			composed.Name = fmt.Sprintf("%s/medium%d", c.tmpl.Name, lvl.id)
			// Hide private vertices: they cannot be shared with any
			// other medium, so they are pure internals of this one.
			hidden := tu.NewSet()
			for _, mp := range med.ports {
				if mp.sym.private {
					hidden.Set(mp.tp)
				}
			}
			composed = ca.Hide(composed, hidden)
			if c.tmpl.opts.Simplify {
				vis := func(p ca.PortID) bool { return !hidden.Has(p) }
				simp, err := ca.Simplify(composed, vis)
				if err == nil {
					composed = simp
				}
			}
			med.auts = append(med.auts, composed)
			composedReads.AndNotInto(hidden)
			composedWrites.AndNotInto(hidden)
			med.reads = append(med.reads, composedReads)
			med.writes = append(med.writes, composedWrites)
		}
	}
	return med, nil
}

// indexPrefixMatches reports whether the index expressions start with
// exactly the enclosing iteration variables, in order — the condition
// under which a per-level vertex is genuinely private to one instantiation
// of the level (rather than shared across loop iterations).
func indexPrefixMatches(indices []ast.IntExpr, encl []string) bool {
	if len(indices) < len(encl) {
		return false
	}
	for i, v := range encl {
		ref, ok := indices[i].(*ast.VarRef)
		if !ok || ref.Name != v {
			return false
		}
	}
	return true
}

// MakePrim builds a primitive automaton over u with the given concrete
// port lists. Exposed for the builder API and tests.
func MakePrim(u *ca.Universe, name, attr string, tails, heads []ca.PortID, funcs Funcs) (*ca.Automaton, error) {
	b, ok := sema.Builtins[name]
	if !ok {
		return nil, fmt.Errorf("unknown primitive %q", name)
	}
	checkArity := func(n, min, max int, side string) error {
		if n < min {
			return fmt.Errorf("primitive %q needs at least %d %s port(s), got %d", name, min, side, n)
		}
		if max >= 0 && n > max {
			return fmt.Errorf("primitive %q takes at most %d %s port(s), got %d", name, max, side, n)
		}
		return nil
	}
	if err := checkArity(len(tails), b.MinTails, b.MaxTails, "tail"); err != nil {
		return nil, err
	}
	if err := checkArity(len(heads), b.MinHeads, b.MaxHeads, "head"); err != nil {
		return nil, err
	}

	switch name {
	case "Sync":
		return prim.Sync(u, tails[0], heads[0]), nil
	case "LossySync":
		return prim.LossySync(u, tails[0], heads[0]), nil
	case "SyncDrain":
		return prim.SyncDrain(u, tails[0], tails[1]), nil
	case "AsyncDrain":
		return prim.AsyncDrain(u, tails[0], tails[1]), nil
	case "SyncSpout":
		return prim.SyncSpout(u, heads[0], heads[1]), nil
	case "Spout1":
		return prim.Spout1(u, heads[0]), nil
	case "Fifo1":
		return prim.Fifo1(u, tails[0], heads[0]), nil
	case "Fifo1Full":
		return prim.Fifo1Full(u, tails[0], heads[0], prim.Token{}), nil
	case "Fifo":
		k, err := strconv.Atoi(attr)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("Fifo.%s: capacity must be a positive integer", attr)
		}
		return prim.FifoK(u, tails[0], heads[0], k), nil
	case "Filter":
		f, ok := funcs.Filters[attr]
		if !ok {
			return nil, fmt.Errorf("Filter.%s: no registered filter %q", attr, attr)
		}
		return prim.Filter(u, tails[0], heads[0], attr, f), nil
	case "Transformer":
		f, ok := funcs.Transformers[attr]
		if !ok {
			return nil, fmt.Errorf("Transformer.%s: no registered transformer %q", attr, attr)
		}
		return prim.Transformer(u, tails[0], heads[0], attr, f), nil
	case "Merger":
		return prim.Merger(u, tails, heads[0]), nil
	case "Replicator":
		return prim.Replicator(u, tails[0], heads), nil
	case "Router":
		return prim.Router(u, tails[0], heads), nil
	case "Seq":
		return prim.Seq(u, tails), nil
	case "Valve1":
		return prim.Valve1(u, tails[0], heads[0], tails[1]), nil
	}
	return nil, fmt.Errorf("primitive %q not implemented", name)
}
