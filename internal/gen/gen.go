package gen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/prim"
	"repro/internal/sema"
)

// Config parametrizes one generation run.
type Config struct {
	// Connector is the definition name to compile.
	Connector string
	// Package is the emitted package name (default: lower-cased
	// connector name).
	Package string
	// N is the array length applied to every array parameter; Lengths
	// overrides it per parameter when non-nil.
	N       int
	Lengths map[string]int
	// Funcs supplies registered data functions for Filter.* and
	// Transformer.* primitives. Generation only needs them to build the
	// automata; emitted code references them by name and resolves them
	// again at New() time from the generated package's own registry.
	Funcs compile.Funcs
	// MaxStates bounds ahead-of-time expansion (default 4096), the
	// static analogue of the engine's AOT limit.
	MaxStates int
}

// Generated is the result of one generation run.
type Generated struct {
	// File is the gofmt-formatted source of the emitted package, laid
	// out as a single <Package>_gen.go file.
	File []byte
	// Package and Connector echo the configuration.
	Package   string
	Connector string
	// States and Transitions count the expanded composite space (for
	// the parametric path: totals across the emitted region templates).
	States, Transitions int
	// Templates counts the distinct region shapes of a parametric run
	// (zero for the fixed-N path).
	Templates int
}

// model is the fully resolved form the emitter works from.
type model struct {
	cfg       Config
	universe  *ca.Universe
	auts      []*ca.Automaton
	ports     []portInfo // compact boundary ports, ascending ca.PortID
	portIdx   map[ca.PortID]int32
	params    []paramInfo
	cells     []any // initial values, index = ca.CellID
	states    []*stateInfo
	trans     []*transInfo
	filters   []string // referenced filter names, sorted
	filterIdx map[string]int
	xforms    []string // referenced transformer names, sorted
	xformIdx  map[string]int
}

type portInfo struct {
	name   string
	source bool
}

type paramInfo struct {
	name  string
	ports []int32 // compact indices, array order
}

type stateInfo struct {
	vec   []int32
	trans []int32 // global transition ids, joint order
	taus  []int32 // subset with no boundary port in sync
	// byPort[compact port] lists the transitions whose sync set contains
	// that boundary port (ascending) — the static form of the engine's
	// per-state dispatch index.
	byPort map[int32][]int32
}

type transInfo struct {
	id    int32
	joint *ca.Cluster
	// syncPorts are the boundary ports of the sync set, compact indices
	// ascending — the ports that must hold pending operations.
	syncPorts []int32
	guards    []guardInfo
	outs      []outInfo
	target    int32
	flow      bool
	label     string // diagnostic comment: port-set + effects
}

type guardInfo struct {
	src    ca.Loc
	filter int  // index into model.filters
	negate bool // guard name was "!name"
	// xforms are the transformations folded into the predicate by
	// simplification, outermost first (indices into model.xforms).
	xforms []int
}

type outInfo struct {
	deliver bool
	port    int32 // compact sink port (deliver)
	cell    ca.CellID
	src     ca.Loc
	// xforms is the action's transformation composition, outermost
	// first (indices into model.xforms); empty for identity moves.
	xforms []int
}

// Generate compiles one connector of src and emits its static package.
func Generate(src string, cfg Config) (*Generated, error) {
	m, err := buildModel(src, cfg)
	if err != nil {
		return nil, err
	}
	file, err := m.emit()
	if err != nil {
		return nil, err
	}
	return &Generated{
		File:        file,
		Package:     m.cfg.Package,
		Connector:   m.cfg.Connector,
		States:      len(m.states),
		Transitions: len(m.trans),
	}, nil
}

func buildModel(src string, cfg Config) (*model, error) {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 4096
	}
	if cfg.N <= 0 {
		cfg.N = 3
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
	lengths := cfg.Lengths
	if lengths == nil {
		lengths = make(map[string]int)
		for _, p := range tmpl.ArrayParams() {
			lengths[p] = cfg.N
		}
	}
	asm, err := tmpl.Instantiate(lengths)
	if err != nil {
		return nil, err
	}
	if cfg.Package == "" {
		cfg.Package = sanitizePackage(cfg.Connector)
	}
	if err := checkPackageName(cfg.Package); err != nil {
		return nil, err
	}

	m := &model{
		cfg:       cfg,
		universe:  asm.U,
		auts:      asm.Auts,
		portIdx:   make(map[ca.PortID]int32),
		filterIdx: make(map[string]int),
		xformIdx:  make(map[string]int),
		cells:     asm.U.InitialCells(),
	}
	for _, a := range m.auts {
		a.PadToUniverse()
	}
	for p := 0; p < asm.U.NumPorts(); p++ {
		id := ca.PortID(p)
		dir := asm.U.DirOf(id)
		if dir == ca.DirNone {
			continue
		}
		m.portIdx[id] = int32(len(m.ports))
		m.ports = append(m.ports, portInfo{name: asm.U.Name(id), source: dir == ca.DirSource})
	}
	if len(m.ports) == 0 {
		return nil, fmt.Errorf("gen: connector %q has no boundary ports", cfg.Connector)
	}
	// Parameters in sorted name order (Assembly's maps are unordered);
	// the vertex lists themselves keep array order.
	addParams := func(side map[string][]ca.PortID) error {
		for name, ids := range side {
			var idxs []int32
			for _, id := range ids {
				ci, ok := m.portIdx[id]
				if !ok {
					return fmt.Errorf("gen: parameter %q is bound to non-boundary port %q", name, asm.U.Name(id))
				}
				idxs = append(idxs, ci)
			}
			m.params = append(m.params, paramInfo{name: name, ports: idxs})
		}
		return nil
	}
	if err := addParams(asm.Tails); err != nil {
		return nil, err
	}
	if err := addParams(asm.Heads); err != nil {
		return nil, err
	}
	sort.Slice(m.params, func(i, j int) bool { return m.params[i].name < m.params[j].name })

	if err := m.expand(); err != nil {
		return nil, err
	}
	return m, nil
}

// expand performs the ahead-of-time breadth-first expansion of the
// reachable composite state space — the generation-time counterpart of
// the engine's AOT mode — and resolves every joint transition.
func (m *model) expand() error {
	initial := make([]int32, len(m.auts))
	for i, a := range m.auts {
		initial[i] = a.Initial
	}
	key := func(vec []int32) string {
		var sb strings.Builder
		for _, s := range vec {
			fmt.Fprintf(&sb, "%d,", s)
		}
		return sb.String()
	}
	ids := map[string]int32{key(initial): 0}
	m.states = []*stateInfo{{vec: initial}}
	x := ca.NewExpander(m.auts, ca.ExpandConnected)
	var steps []*ca.Cluster
	vec := make([]int32, len(m.auts))
	for si := 0; si < len(m.states); si++ {
		st := m.states[si]
		st.byPort = make(map[int32][]int32)
		steps = x.Expand(st.vec, steps[:0])
		for _, c := range steps {
			tid := int32(len(m.trans))
			t := &transInfo{id: tid, joint: c}
			if err := m.resolveTrans(t); err != nil {
				return err
			}
			copy(vec, st.vec)
			c.Apply(vec)
			tk := key(vec)
			target, ok := ids[tk]
			if !ok {
				target = int32(len(m.states))
				if int(target) >= m.cfg.MaxStates {
					return fmt.Errorf("gen: %w: ahead-of-time expansion exceeds %d composite states (the interpreted JIT engine has no such limit)", ca.ErrTooLarge, m.cfg.MaxStates)
				}
				ids[tk] = target
				m.states = append(m.states, &stateInfo{vec: append([]int32(nil), vec...)})
			}
			t.target = target
			t.flow = len(t.guards) == 0 && t.cellWrites() == 0 && target == int32(si)
			m.trans = append(m.trans, t)
			st.trans = append(st.trans, tid)
			if len(t.syncPorts) == 0 {
				st.taus = append(st.taus, tid)
			}
			for _, p := range t.syncPorts {
				st.byPort[p] = append(st.byPort[p], tid)
			}
		}
	}
	return nil
}

func (t *transInfo) cellWrites() int {
	n := 0
	for _, o := range t.outs {
		if !o.deliver {
			n++
		}
	}
	return n
}

// resolveTrans classifies one joint transition's sync set, guards, and
// external effects, mirroring ca.CompilePlan's port classification.
func (m *model) resolveTrans(t *transInfo) error {
	t.joint.Sync.ForEach(func(p ca.PortID) {
		if ci, ok := m.portIdx[p]; ok {
			t.syncPorts = append(t.syncPorts, ci)
		}
	})
	for gi := range t.joint.Guards {
		g := &t.joint.Guards[gi]
		name, negate := g.Name, false
		if strings.HasPrefix(name, "!") {
			name, negate = name[1:], true
		}
		if name == "" {
			return fmt.Errorf("gen: transition guard without a registered filter name cannot be generated")
		}
		xfs, err := m.xformChain(g.XformNames, len(g.XformNames) > 0)
		if err != nil {
			return err
		}
		t.guards = append(t.guards, guardInfo{src: g.In, filter: m.filterID(name), negate: negate, xforms: xfs})
	}
	for ai := range t.joint.Acts {
		act := &t.joint.Acts[ai]
		switch act.Dst.Kind {
		case ca.LocPort:
			ci, boundary := m.portIdx[act.Dst.Port]
			if !boundary || m.ports[ci].source {
				continue // hidden (or source) destination: feeds chains only
			}
			inSync := false
			for _, sp := range t.syncPorts {
				if sp == ci {
					inSync = true
				}
			}
			if !inSync {
				return fmt.Errorf("gen: delivery to sink %q outside the transition's synchronization set", m.ports[ci].name)
			}
			xfs, err := m.actXforms(act)
			if err != nil {
				return err
			}
			t.outs = append(t.outs, outInfo{deliver: true, port: ci, src: act.Src, xforms: xfs})
		case ca.LocCell:
			xfs, err := m.actXforms(act)
			if err != nil {
				return err
			}
			t.outs = append(t.outs, outInfo{cell: act.Dst.Cell, src: act.Src, xforms: xfs})
		case ca.LocConst:
			return fmt.Errorf("gen: constant as action destination")
		}
	}
	t.label = m.labelOf(t)
	return nil
}

// filterID interns a filter name; table order is first-reference order,
// which is deterministic (joint transitions enumerate deterministically).
func (m *model) filterID(name string) int {
	if id, ok := m.filterIdx[name]; ok {
		return id
	}
	id := len(m.filters)
	m.filters = append(m.filters, name)
	m.filterIdx[name] = id
	return id
}

// xformChain interns a transformation name chain (outermost first).
// anon reports the chain should exist: a non-empty chain containing an
// empty name, or an expected-but-missing chain, marks a transformation
// composed from an anonymous function, which cannot be re-emitted.
func (m *model) xformChain(names []string, anon bool) ([]int, error) {
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
		id, ok := m.xformIdx[name]
		if !ok {
			id = len(m.xforms)
			m.xforms = append(m.xforms, name)
			m.xformIdx[name] = id
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// actXforms interns an action's transformation composition.
func (m *model) actXforms(act *ca.Action) ([]int, error) {
	return m.xformChain(act.XformNames, act.Xform != nil)
}

// labelOf renders a transition's port set and effects for the comment
// the emitter attaches to each specialized case.
func (m *model) labelOf(t *transInfo) string {
	var names []string
	for _, ci := range t.syncPorts {
		names = append(names, m.ports[ci].name)
	}
	lbl := "{" + strings.Join(names, ",") + "}"
	for _, g := range t.guards {
		neg := ""
		if g.negate {
			neg = "!"
		}
		lbl += fmt.Sprintf(" [%s%s]", neg, m.filters[g.filter])
	}
	nd, nc := 0, 0
	for _, o := range t.outs {
		if o.deliver {
			nd++
		} else {
			nc++
		}
	}
	if nd > 0 {
		lbl += fmt.Sprintf(" %d deliver", nd)
	}
	if nc > 0 {
		lbl += fmt.Sprintf(" %d cell", nc)
	}
	if t.flow {
		lbl += " flow"
	}
	return lbl
}

// constExpr renders a constant as Go source. The DSL only produces nil
// and token constants (Fifo1Full seeds, spout emissions); plain scalar
// literals are supported for hand-assembled automata.
func constExpr(v any) (string, error) {
	switch v := v.(type) {
	case nil:
		return "nil", nil
	case prim.Token:
		return "token{}", nil
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64, string:
		return fmt.Sprintf("%#v", v), nil
	}
	return "", fmt.Errorf("gen: constant of type %T cannot be rendered as Go source", v)
}

// sanitizePackage derives a legal lower-case package name.
func sanitizePackage(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
			sb.WriteRune(r)
		}
	}
	s := sb.String()
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		s = "conn" + s
	}
	return s
}

func checkPackageName(name string) error {
	if name == "" {
		return fmt.Errorf("gen: empty package name")
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r == '_' || r >= '0' && r <= '9' && i > 0
		if !ok {
			return fmt.Errorf("gen: %q is not a usable package name (lower-case letters, digits, underscore)", name)
		}
	}
	return nil
}
