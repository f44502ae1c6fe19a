// Package genrun is the shared runtime of generated connectors: the
// packages `reoc gen` emits contain only their embedded source text and
// a list of static region templates (state/transition tables with
// inlined guard/exec closures), and call genrun.New to turn them into a
// live instance at any array length N.
//
// New runs the ordinary compilation pipeline (parse → check → compile →
// instantiate) to obtain the connector's constituent automata, plans the
// asynchronous regions exactly as the interpreted PartitionRegions path
// does, and then — instead of interpreting each region's transition
// plans — binds the matching static template to every region whose
// canonical structure (ca.CanonicalRegion) one of the templates was
// generated for. Bound regions fire through the engine's one fire loop,
// over the table engine.BindGen lowers the template into; regions
// without a matching template (node regions, shapes that appeared only
// at other N, connectors edited since generation) silently stay
// interpreted, so the instance is always correct — generation is a
// per-region acceleration, not a semantic fork. Batched ports,
// WithWorkers/WithRuntime scheduling, and the region links all work
// identically on bound and interpreted regions.
package genrun

import (
	"fmt"
	"sync"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sema"
)

// Funcs registers the data functions referenced by Filter.*/Transformer.*
// primitives, exactly as reo.WithFuncs does for the interpreted path.
type Funcs = compile.Funcs

// Ctx is the execution context generated guard/exec closures receive.
type Ctx = engine.GenCtx

// Trans is one static transition of a generated region template.
type Trans = engine.GenTrans

// Template is one region shape of a generated connector: the canonical
// structure key it was generated for, the slot classification, the
// static transition tables, and the registered function names its
// closures index (resolved against Funcs at New time).
type Template struct {
	// Key is ca.CanonicalRegion's structure key of the region automaton
	// the template was generated from; New binds the template to every
	// region with the same key.
	Key string
	// Cls classifies each port slot ('S' source, 'K' sink, 'I' internal)
	// under the link layout the region had at generation time.
	Cls     string
	States  int
	Initial int32
	Cells   int
	// FilterNames/XformNames list the registered functions the template's
	// closures call, in Filt/Xf index order.
	FilterNames []string
	XformNames  []string
	Trans       [][]Trans
}

type config struct {
	seed       int64
	workers    int
	runtime    *engine.Runtime
	useRuntime bool
	funcs      Funcs
}

// Option configures New.
type Option func(*config)

// WithSeed fixes the nondeterministic-choice seed (per-region streams
// derive from it exactly as in the interpreted engine).
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithWorkers runs the regions on a dedicated n-worker pool
// (reo.WithWorkers semantics: 0 = synchronous, <0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRuntime attaches the regions to a shared pool instead (nil selects
// the process-global default). Mutually exclusive with WithWorkers.
func WithRuntime(rt *engine.Runtime) Option {
	return func(c *config) { c.runtime, c.useRuntime = rt, true }
}

// WithFuncs registers the data functions the connector's Filter.* and
// Transformer.* primitives name.
func WithFuncs(f Funcs) Option { return func(c *config) { c.funcs = f } }

// Instance is a live parametric generated connector. It satisfies the
// engine.Backend contract (and so the explorer's differential driver's)
// through the embedded name-addressed adapter.
type Instance struct {
	*engine.Named
	m         *engine.Multi
	regions   int
	generated int
}

// Workers returns the scheduler pool size the regions fire on (0 when
// cross-region progress is driven synchronously).
func (i *Instance) Workers() int { return i.m.Workers() }

// Regions returns the number of region engines of the instance.
func (i *Instance) Regions() int { return i.regions }

// GeneratedRegions returns how many of them run on a bound static
// template (the rest are interpreted fallbacks).
func (i *Instance) GeneratedRegions() int { return i.generated }

// built caches the compiled template of one (source, connector) pair so
// repeated New calls (instance churn, benchmarks) pay parsing and
// parametrized compilation once, like reo.Program's template cache.
type built struct {
	tmpl *compile.Template
	err  error
}

var (
	builtMu sync.Mutex
	builts  = map[string]*built{}
)

func compileOnce(src, connector string, funcs Funcs) (*compile.Template, error) {
	// Funcs participate in compilation (predicates are baked into the
	// automata), so the cache key must cover the registration identity;
	// generated packages pass the same Funcs value per call site, and a
	// differing registration simply misses the cache.
	key := fmt.Sprintf("%p/%p/%s\x00%s", funcs.Filters, funcs.Transformers, connector, src)
	builtMu.Lock()
	defer builtMu.Unlock()
	if b, ok := builts[key]; ok {
		return b.tmpl, b.err
	}
	b := &built{}
	builts[key] = b
	f, err := parser.Parse(src)
	if err != nil {
		b.err = err
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		b.err = err
		return nil, err
	}
	b.tmpl, b.err = compile.Build(info, connector, funcs, compile.Options{Simplify: true})
	return b.tmpl, b.err
}

// New instantiates a generated connector at array length n: every array
// parameter is instantiated to n, the instance is partitioned into
// asynchronous regions, and each region matching a template's canonical
// structure is bound to that template's static code.
func New(src, connector string, n int, templates []*Template, opts ...Option) (*Instance, error) {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	if n < 1 {
		return nil, fmt.Errorf("%s: array length n=%d must be >= 1 (arrays are nonempty)", connector, n)
	}
	if cfg.useRuntime && cfg.workers != 0 {
		return nil, fmt.Errorf("%s: WithRuntime is mutually exclusive with WithWorkers (a shared runtime brings its own pool)", connector)
	}
	if cfg.useRuntime && cfg.runtime == nil {
		cfg.runtime = engine.DefaultRuntime()
	}

	// Resolve every template's registered functions eagerly, so a missing
	// registration fails loudly at construction instead of silently
	// leaving its regions interpreted.
	type boundTemplate struct {
		gt    *engine.GenTemplate
		filts []func(any) bool
		xfs   []func(any) any
	}
	byKey := make(map[string][]*boundTemplate, len(templates))
	for _, t := range templates {
		bt := &boundTemplate{gt: &engine.GenTemplate{
			States:  t.States,
			Initial: t.Initial,
			Cells:   t.Cells,
			Cls:     t.Cls,
			Trans:   t.Trans,
		}}
		for _, name := range t.FilterNames {
			fn := cfg.funcs.Filters[name]
			if fn == nil {
				return nil, fmt.Errorf("%s: no registered filter %q (pass WithFuncs)", connector, name)
			}
			bt.filts = append(bt.filts, fn)
		}
		for _, name := range t.XformNames {
			fn := cfg.funcs.Transformers[name]
			if fn == nil {
				return nil, fmt.Errorf("%s: no registered transformer %q (pass WithFuncs)", connector, name)
			}
			bt.xfs = append(bt.xfs, fn)
		}
		byKey[t.Key] = append(byKey[t.Key], bt)
	}

	tmpl, err := compileOnce(src, connector, cfg.funcs)
	if err != nil {
		return nil, err
	}
	lengths := map[string]int{}
	for _, p := range tmpl.ArrayParams() {
		lengths[p] = n
	}
	asm, err := tmpl.Instantiate(lengths)
	if err != nil {
		return nil, err
	}

	generated := 0
	bind := func(ri int, spec ca.RegionSpec, eng *engine.Engine) {
		if len(spec.Auts) != 1 || len(spec.Nodes) != 0 {
			return
		}
		key, ports, cells := ca.CanonicalRegion(asm.Auts[spec.Auts[0]])
		for _, bt := range byKey[key] {
			if eng.BindGen(bt.gt, ports, cells, bt.filts, bt.xfs) == nil {
				generated++
				return
			}
		}
	}
	m, err := engine.NewMultiRegionsBound(asm.U, asm.Auts, engine.Options{
		Seed:    cfg.seed,
		Workers: cfg.workers,
		Runtime: cfg.runtime,
	}, bind)
	if err != nil {
		return nil, err
	}

	return &Instance{
		Named:     engine.NewNamed(m, engine.NamedPorts(asm.U, asm.Tails), engine.NamedPorts(asm.U, asm.Heads)),
		m:         m,
		regions:   m.Partitions(),
		generated: generated,
	}, nil
}
