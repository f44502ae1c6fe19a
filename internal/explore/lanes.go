package explore

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/gen/gendrv"
	"repro/internal/parser"
	"repro/internal/sema"
)

// maxTauBurst bounds internal-step bursts in every lane identically:
// generated token rings livelock deterministically (and cheaply)
// instead of walking the engine's default million-step budget.
const maxTauBurst = 20000

// BuiltConn is a generated connector that survived the real compile
// pipeline; lanes instantiate it independently (each engine gets a
// fresh universe, exactly like separate Connect calls).
type BuiltConn struct {
	Conn *Conn
	tmpl *compile.Template
}

// Funcs returns the registered data functions every lane shares (the
// gendrv set, so explorer cases and fixed differentials agree on
// semantics).
func Funcs() compile.Funcs {
	return compile.Funcs{
		Filters:      gendrv.TestFilters(),
		Transformers: gendrv.TestXforms(),
	}
}

// BuildConn generates a connector from the seed and validates it
// through parse→check→compile→instantiate, retrying with derived seeds
// until one passes (the grammar is correct by construction, so retries
// are rare; after 32 rejections the last error is returned).
func BuildConn(seed int64, cfg GenConfig) (*BuiltConn, error) {
	var lastErr error
	for attempt := 0; attempt < 32; attempt++ {
		c := GenerateConn(deriveSeed(seed, uint64(attempt)), cfg)
		tmpl, err := compileConn(c)
		if err != nil {
			lastErr = err
			continue
		}
		bc := &BuiltConn{Conn: c, tmpl: tmpl}
		if _, err := bc.instantiate(); err != nil {
			lastErr = err
			continue
		}
		return bc, nil
	}
	return nil, fmt.Errorf("explore: no valid connector after 32 attempts from seed %d: %w", seed, lastErr)
}

// CompileConn validates one concrete connector (the shrinker re-checks
// every reduction candidate through it).
func CompileConn(c *Conn) (*BuiltConn, error) {
	tmpl, err := compileConn(c)
	if err != nil {
		return nil, err
	}
	bc := &BuiltConn{Conn: c, tmpl: tmpl}
	if _, err := bc.instantiate(); err != nil {
		return nil, err
	}
	return bc, nil
}

func compileConn(c *Conn) (*compile.Template, error) {
	f, err := parser.Parse(c.Source())
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	return compile.Build(info, c.Name(), Funcs(), compile.Options{Simplify: true})
}

func (bc *BuiltConn) instantiate() (*compile.Assembly, error) {
	return bc.tmpl.Instantiate(bc.Conn.Lengths())
}

// Ins and Outs return the boundary vertex names in array order.
func (bc *BuiltConn) Ins() []string  { return paramNames("in", bc.Conn.NIn) }
func (bc *BuiltConn) Outs() []string { return paramNames("out", bc.Conn.NOut) }

func paramNames(param string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s[%d]", param, i+1)
	}
	return out
}

// Lane identifies one execution configuration of the differential
// matrix.
type Lane struct {
	Name string
	// Group "regions" shares the reference's region plan and per-region
	// choice streams (strict comparison); "single" lanes differ in
	// structure or scheduling, so they compare sequences on deterministic
	// connectors and replay-determinism on choice-bearing ones.
	Group string
	// Async lanes fire off the caller goroutines (quiet-window settling,
	// self-consistency retry on divergence).
	Async bool
	// SkipCounters drops Steps and GuardEvals from the comparison:
	// scheduling lanes run region loops eagerly on their own goroutines,
	// so internal work pending at close (and dispatch-scan counts) are
	// timing-dependent even when every observable sequence is strict.
	SkipCounters bool
	// Batch re-chunks the schedule to this size (0 = reference chunking).
	Batch int
}

// allLanes is the lane matrix a backends selector picks from: "all" or
// a comma-separated subset of gen, workers, runtime, batch2, off, aot.
var allLanes = []Lane{
	{Name: "gen", Group: "regions"},
	// Scheduling lanes drain cross-region propagation eagerly on their
	// own goroutines, where the cooperative reference defers it to the
	// next operation — decision points (and so merge orders) legitimately
	// differ, so they are sequence-compared on deterministic connectors
	// only. Strict parity is the gen lane's contract.
	{Name: "workers", Group: "single", Async: true, SkipCounters: true},
	{Name: "runtime", Group: "single", Async: true, SkipCounters: true},
	// Re-chunking moves the engine's decision points (each op
	// registration is a dispatch scan), so merge choices resolve at
	// different moments even on the same RNG stream — the batch lane is
	// compared like the single-engine lanes.
	{Name: "batch2", Group: "single", Batch: 2},
	{Name: "off", Group: "single"},
	{Name: "aot", Group: "single"},
}

// NewBackend builds a fresh instance of the connector for the named
// lane. The returned close function releases it (lanes with dedicated
// runtimes tear them down). mutate injects the candidate-ordering
// off-by-one into the generated lane's templates (mutation self-check
// only). genBound reports how many regions run generated dispatch (0
// for interpreted lanes).
func (bc *BuiltConn) NewBackend(lane string, seed int64, mutate bool) (b Backend, closeFn func() error, genBound int, err error) {
	asm, err := bc.instantiate()
	if err != nil {
		return nil, nil, 0, err
	}
	opts := engine.Options{Seed: seed, MaxTauBurst: maxTauBurst}
	var coord engine.Coordinator
	switch lane {
	case "ref", "batch2", "batch3":
		coord, err = engine.NewMultiRegions(asm.U, asm.Auts, opts)
	case "gen":
		bind, bound := gen.InProcBinder(asm, gen.InProcOptions{MutateRotateCandidates: mutate})
		coord, err = engine.NewMultiRegionsBound(asm.U, asm.Auts, opts, bind)
		genBound = *bound
	case "workers":
		opts.Workers = 2
		coord, err = engine.NewMultiRegions(asm.U, asm.Auts, opts)
	case "runtime":
		rt := engine.NewRuntime(2)
		coord, err = engine.NewMultiRegions(asm.U, asm.Auts, withRuntime(opts, rt))
		if err == nil {
			inner := coord
			coord = nil
			named := engine.NewNamed(inner, engine.NamedPorts(asm.U, asm.Tails), engine.NamedPorts(asm.U, asm.Heads))
			return named, func() error {
				cerr := named.Close()
				rt.Close()
				return cerr
			}, 0, nil
		}
		rt.Close()
	case "off":
		coord, err = engine.New(asm.U, asm.Auts, opts)
	case "aot":
		opts.Composition = engine.AOT
		opts.MaxStates = 1 << 14
		coord, err = engine.New(asm.U, asm.Auts, opts)
	default:
		return nil, nil, 0, fmt.Errorf("explore: unknown lane %q", lane)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	named := engine.NewNamed(coord, engine.NamedPorts(asm.U, asm.Tails), engine.NamedPorts(asm.U, asm.Heads))
	return named, named.Close, genBound, nil
}

func withRuntime(opts engine.Options, rt *engine.Runtime) engine.Options {
	opts.Runtime = rt
	return opts
}
