package gen

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/prim"
	"repro/internal/sema"
)

// This file implements the code generator. GenerateParametric emits one
// static template per *region shape*: the connector is probed at a few array
// lengths, partitioned into asynchronous regions exactly as the
// interpreted PartitionRegions path partitions it, and every distinct
// solid single-automaton region structure (ca.CanonicalRegion) becomes
// one genrun.Template — state/transition tables over slot indices with
// inlined guard and data-move closures. The emitted package carries the
// connector's embedded source text plus the template list and calls
// genrun.New(n), which re-plans the regions at the requested N and binds
// each matching region to its template (engine.BindGen); the composite
// space is never expanded, so one generation run serves every N.
//
// The closures mirror ca.CompilePlan's semantics transition by
// transition: hidden-port data-flow chains become memoized locals,
// every output value is computed before any delivery or cell write
// (pre-step simultaneity), deliveries go to sink-classified slots in
// action order, cell writes follow in action order, and guards test
// registered filters with the "!name" negation convention. Region
// shapes that cannot be re-emitted (anonymous functions, causal cycles)
// are skipped: genrun leaves their regions interpreted, so a partially
// generatable connector still runs correctly.

// probeLengths are the array lengths GenerateParametric instantiates to
// discover region shapes. Shapes of product-style connectors are
// N-invariant; probing several lengths catches shapes that only appear
// past a boundary case (first/last element specializations).
var probeLengths = []int{2, 3, 4}

// pTemplate is one distinct region shape: the canonical automaton it was
// derived from plus the rendered Go source of its transition closures.
type pTemplate struct {
	key     string
	cls     string
	autName string
	states  int
	initial int32
	cells   int
	count   int // matching regions across all probes (diagnostics)

	aut     *ca.Automaton
	slot    map[ca.PortID]int
	cellIdx map[ca.CellID]int

	filters   []string
	filterIdx map[string]int
	xforms    []string
	xformIdx  map[string]int

	// trans[s][i] is the rendered genrun.Trans literal body for
	// transition i of state s.
	trans [][]pTrans
}

type pTrans struct {
	syncSlots []int
	target    int32
	flow      bool
	guardSrc  []string // closure body lines; empty = nil Guards
	execSrc   []string // closure body lines; empty = nil Exec
	label     string
}

// pModel is the resolved form the parametric emitter works from.
type pModel struct {
	cfg       Config
	src       string
	tmpls     []*pTemplate
	skipped   []string // shape names that stay interpreted, with reasons
	needsPrim bool
}

// GenerateParametric compiles one connector of src and emits its
// parametric package: a thin shell over internal/gen/genrun holding the
// embedded source and one static template per distinct region shape.
// The emitted package imports the genrun runtime, and its New takes the
// array length: New(n, opts...) works for every n >= 1 from one
// generation run.
func GenerateParametric(src string, cfg Config) (*Generated, error) {
	m, err := buildParametricModel(src, cfg)
	if err != nil {
		return nil, err
	}
	file, err := m.emit()
	if err != nil {
		return nil, err
	}
	states, trans := 0, 0
	for _, t := range m.tmpls {
		states += t.states
		for _, ts := range t.trans {
			trans += len(ts)
		}
	}
	return &Generated{
		File:        file,
		Package:     m.cfg.Package,
		Connector:   m.cfg.Connector,
		States:      states,
		Transitions: trans,
		Templates:   len(m.tmpls),
	}, nil
}

func buildParametricModel(src string, cfg Config) (*pModel, error) {
	if cfg.Package == "" {
		cfg.Package = sanitizePackage(cfg.Connector)
	}
	if err := checkPackageName(cfg.Package); err != nil {
		return nil, err
	}
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	tmpl, err := compile.Build(info, cfg.Connector, cfg.Funcs, compile.Options{Simplify: true})
	if err != nil {
		return nil, err
	}

	m := &pModel{cfg: cfg, src: src}
	// seen maps key+cls to the built template, or nil for a shape already
	// diagnosed as non-generatable (so its reason is recorded once).
	seen := map[string]*pTemplate{}
	for _, n := range probeLengths {
		lengths := make(map[string]int)
		for _, p := range tmpl.ArrayParams() {
			lengths[p] = n
		}
		asm, err := tmpl.Instantiate(lengths)
		if err != nil {
			return nil, fmt.Errorf("gen: probing %s at n=%d: %w", cfg.Connector, n, err)
		}
		plan := ca.PlanRegions(asm.U, asm.Auts)
		for ri, spec := range plan.Regions {
			if len(spec.Auts) != 1 || len(spec.Nodes) != 0 {
				continue // node regions and multi-automaton regions stay interpreted
			}
			a := asm.Auts[spec.Auts[0]]
			key, ports, cells := ca.CanonicalRegion(a)
			cls := regionCls(asm.U, plan, ri, ports)
			id := key + "\x00" + cls
			if pt, ok := seen[id]; ok {
				if pt != nil {
					pt.count++
				}
				continue
			}
			pt, err := m.buildTemplate(a, key, cls, ports, cells)
			if err != nil {
				seen[id] = nil
				m.skipped = append(m.skipped, fmt.Sprintf("%s: %v", a.Name, err))
				continue
			}
			pt.count = 1
			seen[id] = pt
			m.tmpls = append(m.tmpls, pt)
		}
	}
	if len(m.tmpls) == 0 {
		msg := "all regions are node or multi-automaton regions"
		if len(m.skipped) > 0 {
			msg = m.skipped[0]
		}
		return nil, fmt.Errorf("gen: connector %q has no generatable region shape (%s)", cfg.Connector, msg)
	}
	return m, nil
}

// regionCls classifies each canonical port slot of region ri the way the
// engine's plan compilation will classify it at bind time (see
// Engine.planDir): an emitting link endpoint is a value source, a
// boundary port keeps its universe direction, an accepting link endpoint
// with no task behind it is a value sink, and everything else is an
// internal vertex. engine.BindGen re-derives the same classification
// from the live region and refuses a template whose string differs, so
// a stale template can never silently misread a differently-cut region.
func regionCls(u *ca.Universe, plan *ca.RegionPlan, ri int, ports []ca.PortID) string {
	emit := map[ca.PortID]bool{}
	accept := map[ca.PortID]bool{}
	for _, lk := range plan.Links {
		if lk.To == ri {
			emit[lk.DstPort] = true
		}
		if lk.From == ri {
			accept[lk.SrcPort] = true
		}
	}
	var sb strings.Builder
	for _, p := range ports {
		switch {
		case emit[p]:
			sb.WriteByte('S')
		case u.DirOf(p) == ca.DirNone && accept[p]:
			sb.WriteByte('K')
		default:
			sb.WriteByte(engine.ClsOfDir(u.DirOf(p)))
		}
	}
	return sb.String()
}

// buildTemplate renders one region automaton's transition closures.
func (m *pModel) buildTemplate(a *ca.Automaton, key, cls string, ports []ca.PortID, cells []ca.CellID) (*pTemplate, error) {
	pt := &pTemplate{
		key:       key,
		cls:       cls,
		autName:   a.Name,
		states:    a.NumStates(),
		initial:   a.Initial,
		cells:     len(cells),
		aut:       a,
		slot:      make(map[ca.PortID]int, len(ports)),
		cellIdx:   make(map[ca.CellID]int, len(cells)),
		filterIdx: make(map[string]int),
		xformIdx:  make(map[string]int),
	}
	for i, p := range ports {
		pt.slot[p] = i
	}
	for i, c := range cells {
		pt.cellIdx[c] = i
	}
	pt.trans = make([][]pTrans, a.NumStates())
	for s := range a.Trans {
		for i := range a.Trans[s] {
			t := &a.Trans[s][i]
			rt, err := m.buildTrans(pt, t, int32(s))
			if err != nil {
				return nil, err
			}
			pt.trans[s] = append(pt.trans[s], rt)
		}
	}
	return pt, nil
}

// buildTrans renders one transition: sync slots, the guard conjunction
// closure, and the data-move closure, with ca.CompilePlan's evaluation
// order baked into straight-line code.
func (m *pModel) buildTrans(pt *pTemplate, t *ca.Transition, state int32) (pTrans, error) {
	rt := pTrans{target: t.Target}
	var err error
	t.Sync.ForEach(func(p ca.PortID) {
		slot, ok := pt.slot[p]
		if !ok && err == nil {
			err = fmt.Errorf("gen: sync port %q not referenced by the region automaton", pt.aut.U.Name(p))
		}
		rt.syncSlots = append(rt.syncSlots, slot)
	})
	if err != nil {
		return rt, err
	}

	// Guard closure: resolve each guard input in order, flushing chain
	// locals before its check — the interpreter's evaluation order.
	gctx := &pExprCtx{m: m, pt: pt, t: t, prefix: "w"}
	for gi := range t.Guards {
		g := &t.Guards[gi]
		name, negate := g.Name, false
		if strings.HasPrefix(name, "!") {
			name, negate = name[1:], true
		}
		if name == "" {
			return rt, fmt.Errorf("gen: transition guard without a registered filter name cannot be generated")
		}
		expr, err := gctx.resolve(g.In)
		if err != nil {
			return rt, err
		}
		xfs, err := pt.xformChain(g.XformNames, len(g.XformNames) > 0)
		if err != nil {
			return rt, err
		}
		rt.guardSrc = append(rt.guardSrc, gctx.body...)
		gctx.body = gctx.body[:0]
		neg := "!"
		if negate {
			neg = ""
		}
		rt.guardSrc = append(rt.guardSrc,
			fmt.Sprintf("if %sg.Filt[%d](%s) {", neg, pt.filterID(name), pt.wrapXf(expr, xfs)),
			"\treturn false",
			"}")
	}
	if len(rt.guardSrc) > 0 {
		rt.guardSrc = append(rt.guardSrc, "return true")
	}

	// Exec closure: external effects in action order. Every output value
	// is computed before any delivery or cell write, so simultaneous
	// read+write of a cell within one step sees the pre-step value.
	type outRef struct {
		deliver bool
		slot    int
		cell    int
		val     string
	}
	var outs []outRef
	ectx := &pExprCtx{m: m, pt: pt, t: t, prefix: "h"}
	cellWrites := 0
	for ai := range t.Acts {
		act := &t.Acts[ai]
		switch act.Dst.Kind {
		case ca.LocPort:
			slot, ok := pt.slot[act.Dst.Port]
			if !ok || pt.cls[slot] != 'K' {
				continue // hidden (or source) destination: feeds chains only
			}
			expr, err := ectx.resolveAct(act)
			if err != nil {
				return rt, err
			}
			v := fmt.Sprintf("v%d", len(outs))
			ectx.body = append(ectx.body, fmt.Sprintf("%s := %s", v, expr))
			outs = append(outs, outRef{deliver: true, slot: slot, val: v})
		case ca.LocCell:
			idx, ok := pt.cellIdx[act.Dst.Cell]
			if !ok {
				return rt, fmt.Errorf("gen: cell write outside the region automaton's referenced cells")
			}
			expr, err := ectx.resolveAct(act)
			if err != nil {
				return rt, err
			}
			v := fmt.Sprintf("v%d", len(outs))
			ectx.body = append(ectx.body, fmt.Sprintf("%s := %s", v, expr))
			outs = append(outs, outRef{slot: -1, cell: idx, val: v})
			cellWrites++
		case ca.LocConst:
			return rt, fmt.Errorf("gen: constant as action destination")
		}
	}
	rt.execSrc = append(rt.execSrc, ectx.body...)
	for _, o := range outs {
		if o.deliver {
			rt.execSrc = append(rt.execSrc, fmt.Sprintf("g.Deliver(%d, %s)", o.slot, o.val))
		}
	}
	for _, o := range outs {
		if !o.deliver {
			rt.execSrc = append(rt.execSrc, fmt.Sprintf("g.SetCell(%d, %s)", o.cell, o.val))
		}
	}
	rt.flow = len(t.Guards) == 0 && cellWrites == 0 && t.Target == state
	rt.label = pt.transLabel(t, rt)
	return rt, nil
}

func (pt *pTemplate) transLabel(t *ca.Transition, rt pTrans) string {
	var names []string
	t.Sync.ForEach(func(p ca.PortID) { names = append(names, pt.aut.U.Name(p)) })
	lbl := "{" + strings.Join(names, ",") + "}"
	for _, g := range t.Guards {
		lbl += fmt.Sprintf(" [%s]", g.Name)
	}
	if rt.flow {
		lbl += " flow"
	}
	return lbl
}

func (pt *pTemplate) filterID(name string) int {
	if id, ok := pt.filterIdx[name]; ok {
		return id
	}
	id := len(pt.filters)
	pt.filters = append(pt.filters, name)
	pt.filterIdx[name] = id
	return id
}

// xformChain interns a transformation name chain (outermost first); anon
// marks a chain composed from an anonymous function, which cannot be
// re-emitted — the shape then stays interpreted.
func (pt *pTemplate) xformChain(names []string, anon bool) ([]int, error) {
	if len(names) == 0 {
		if anon {
			return nil, fmt.Errorf("gen: transformation without a registered name cannot be generated")
		}
		return nil, nil
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("gen: transformation without a registered name cannot be generated")
		}
		id, ok := pt.xformIdx[name]
		if !ok {
			id = len(pt.xforms)
			pt.xforms = append(pt.xforms, name)
			pt.xformIdx[name] = id
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// wrapXf applies a transformation composition (indices outermost first)
// around a value expression: [a, b] renders g.Xf[a](g.Xf[b](e)).
func (pt *pTemplate) wrapXf(expr string, xfs []int) string {
	for i := len(xfs) - 1; i >= 0; i-- {
		expr = fmt.Sprintf("g.Xf[%d](%s)", xfs[i], expr)
	}
	return expr
}

// pExprCtx renders data locations as Go expressions against the GenCtx,
// resolving hidden-port chains into memoized locals exactly as
// ca.CompilePlan does.
type pExprCtx struct {
	m         *pModel
	pt        *pTemplate
	t         *ca.Transition
	body      []string
	memo      map[ca.PortID]string
	resolving map[ca.PortID]bool
	nLocal    int
	prefix    string
}

func (c *pExprCtx) resolveAct(act *ca.Action) (string, error) {
	expr, err := c.resolve(act.Src)
	if err != nil {
		return "", err
	}
	xfs, err := c.pt.xformChain(act.XformNames, act.Xform != nil)
	if err != nil {
		return "", err
	}
	return c.pt.wrapXf(expr, xfs), nil
}

func (c *pExprCtx) resolve(l ca.Loc) (string, error) {
	switch l.Kind {
	case ca.LocConst:
		return c.constExpr(l.Const)
	case ca.LocCell:
		idx, ok := c.pt.cellIdx[l.Cell]
		if !ok {
			return "", fmt.Errorf("gen: cell read outside the region automaton's referenced cells")
		}
		return fmt.Sprintf("g.Cell(%d)", idx), nil
	case ca.LocPort:
		return c.resolvePort(l.Port)
	}
	return "", fmt.Errorf("gen: invalid location kind %d", l.Kind)
}

func (c *pExprCtx) resolvePort(p ca.PortID) (string, error) {
	if slot, ok := c.pt.slot[p]; ok && c.pt.cls[slot] == 'S' {
		return fmt.Sprintf("g.Val(%d)", slot), nil
	}
	if c.memo == nil {
		c.memo = make(map[ca.PortID]string)
		c.resolving = make(map[ca.PortID]bool)
	}
	if v, ok := c.memo[p]; ok {
		return v, nil
	}
	if c.resolving[p] {
		return "", fmt.Errorf("gen: causal cycle through port %q in transition data flow", c.pt.aut.U.Name(p))
	}
	for ai := range c.t.Acts {
		act := &c.t.Acts[ai]
		if act.Dst.Kind != ca.LocPort || act.Dst.Port != p {
			continue
		}
		c.resolving[p] = true
		src, err := c.resolveAct(act)
		delete(c.resolving, p)
		if err != nil {
			return "", err
		}
		v := fmt.Sprintf("%s%d", c.prefix, c.nLocal)
		c.nLocal++
		c.body = append(c.body, fmt.Sprintf("%s := %s", v, src))
		c.memo[p] = v
		return v, nil
	}
	return "", fmt.Errorf("gen: no value defined for port %q in transition", c.pt.aut.U.Name(p))
}

// constExpr renders a constant as Go source. The DSL only produces nil
// and token constants (Fifo1Full seeds, spout emissions); plain scalar
// literals are supported for hand-assembled automata.
func (c *pExprCtx) constExpr(v any) (string, error) {
	switch v := v.(type) {
	case nil:
		return "nil", nil
	case prim.Token:
		c.m.needsPrim = true
		return "prim.Token{}", nil
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64, string:
		return fmt.Sprintf("%#v", v), nil
	}
	return "", fmt.Errorf("gen: constant of type %T cannot be rendered as Go source", v)
}

// emit renders the parametric package as one gofmt-formatted file.
func (m *pModel) emit() ([]byte, error) {
	var sb strings.Builder
	p := func(format string, args ...any) {
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	p("// Code generated by \"reoc gen -parametric\" from connector %s; DO NOT EDIT.", m.cfg.Connector)
	p("")
	p("// Package %s is a parametric statically compiled Reo connector:", m.cfg.Package)
	p("// %s, generated once and instantiable at any array length.", m.cfg.Connector)
	p("// Instead of an ahead-of-time expansion of one fixed-N composite")
	p("// space, the package holds one static template per region shape")
	p("// (%d shape(s)); New(n) re-plans the connector's asynchronous", len(m.tmpls))
	p("// regions at the requested length and binds every matching region")
	p("// to its template's compiled dispatch and data moves, joined by the")
	p("// engine's real SPSC links. Regions without a matching template run")
	p("// interpreted, so the instance is correct at every N.")
	p("package %s", m.cfg.Package)
	p("")
	p("import (")
	p("\t\"repro/internal/gen/genrun\"")
	if m.needsPrim {
		p("")
		p("\t\"repro/internal/prim\"")
	}
	p(")")
	p("")
	p("// connectorName names the source definition New compiles at run time.")
	p("const connectorName = %q", m.cfg.Connector)
	p("")
	p("// source embeds the connector's protocol text; genrun.New re-runs the")
	p("// ordinary pipeline (parse, check, compile, instantiate, region plan)")
	p("// on it to obtain the region structure at the requested length.")
	p("const source = %q", m.src)
	p("")
	p("// Option, Instance, and Funcs re-export the parametric runtime's API")
	p("// so callers need not import genrun directly.")
	p("type (")
	p("\tOption   = genrun.Option")
	p("\tInstance = genrun.Instance")
	p("\tFuncs    = genrun.Funcs")
	p(")")
	p("")
	p("var (")
	p("\tWithSeed    = genrun.WithSeed")
	p("\tWithWorkers = genrun.WithWorkers")
	p("\tWithRuntime = genrun.WithRuntime")
	p("\tWithFuncs   = genrun.WithFuncs")
	p(")")
	p("")
	p("// templates holds one static shape per distinct canonical region")
	p("// structure observed while probing the connector at array lengths %v.", probeLengths)
	if len(m.skipped) > 0 {
		p("// Shapes left to the interpreter:")
		for _, s := range m.skipped {
			p("//   %s", s)
		}
	}
	p("var templates = []*genrun.Template{")
	for _, t := range m.tmpls {
		p("\t// %s: %d states, cls %q", t.autName, t.states, t.cls)
		p("\t{")
		p("\t\tKey:     %q,", t.key)
		p("\t\tCls:     %q,", t.cls)
		p("\t\tStates:  %d,", t.states)
		p("\t\tInitial: %d,", t.initial)
		p("\t\tCells:   %d,", t.cells)
		if len(t.filters) > 0 {
			p("\t\tFilterNames: []string{%s},", quoteList(t.filters))
		}
		if len(t.xforms) > 0 {
			p("\t\tXformNames: []string{%s},", quoteList(t.xforms))
		}
		p("\t\tTrans: [][]genrun.Trans{")
		for s, ts := range t.trans {
			if len(ts) == 0 {
				p("\t\t\tnil, // state %d", s)
				continue
			}
			p("\t\t\t{ // state %d", s)
			for i := range ts {
				emitPTrans(p, &ts[i])
			}
			p("\t\t\t},")
		}
		p("\t\t},")
		p("\t},")
	}
	p("}")
	p("")
	p("// New instantiates the connector at array length n: every array")
	p("// parameter takes length n, and each region whose structure matches a")
	p("// template runs the template's generated code.")
	p("func New(n int, opts ...Option) (*Instance, error) {")
	p("\treturn genrun.New(source, connectorName, n, templates, opts...)")
	p("}")

	src, err := format.Source([]byte(sb.String()))
	if err != nil {
		// A formatting failure is a generator bug; surface the raw text
		// for diagnosis rather than hiding it.
		return nil, fmt.Errorf("gen: emitted source does not parse: %w\n%s", err, sb.String())
	}
	return src, nil
}

func quoteList(names []string) string {
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("%q", n))
	}
	return strings.Join(out, ", ")
}

func emitPTrans(p func(string, ...any), t *pTrans) {
	var fields []string
	if len(t.syncSlots) > 0 {
		var xs []string
		for _, s := range t.syncSlots {
			xs = append(xs, fmt.Sprintf("%d", s))
		}
		fields = append(fields, fmt.Sprintf("Sync: []int32{%s}", strings.Join(xs, ", ")))
	}
	fields = append(fields, fmt.Sprintf("Target: %d", t.target))
	if t.flow {
		fields = append(fields, "Flow: true")
	}
	p("\t\t\t\t// %s", t.label)
	p("\t\t\t\t{%s,", strings.Join(fields, ", "))
	if len(t.guardSrc) > 0 {
		p("\t\t\t\t\tGuards: func(g *genrun.Ctx) bool {")
		for _, l := range t.guardSrc {
			p("\t\t\t\t\t\t%s", l)
		}
		p("\t\t\t\t\t},")
	}
	if len(t.execSrc) > 0 {
		p("\t\t\t\t\tExec: func(g *genrun.Ctx) {")
		for _, l := range t.execSrc {
			p("\t\t\t\t\t\t%s", l)
		}
		p("\t\t\t\t\t},")
	}
	p("\t\t\t\t},")
}
