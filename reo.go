// Package reo is a Go implementation of the parametrized Reo coordination
// language of van Veen & Jongmans, "Modular Programming of Synchronization
// and Communication among Tasks in Parallel Programs" (IPDPSW 2018).
//
// Protocols among tasks are written as connector definitions in a textual
// DSL — compositions of Reo primitives, parametric in the number of tasks
// via port arrays, conditionals, and iterated composition:
//
//	OrderedN(tl[];hd[]) =
//	    if (#tl == 1) {
//	        Fifo1(tl[1];hd[1])
//	    } else {
//	        prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
//	        mult prod (i:1..#tl-1) Seq(next[i],prev[i+1];)
//	        mult Seq(prev[1],next[#tl];)
//	    }
//
//	X(tl;prev,next,hd) =
//	    Replicator(tl;prev,v) mult Fifo1(v;w) mult Replicator(w;next,hd)
//
// Compile parses and checks a program; Program.Connector compiles one
// definition into a parametrized template (the compile-time share of the
// work); Connector.Connect instantiates it for concrete array lengths (the
// run-time share), returning Outports and Inports for tasks to use, in the
// generalized Foster-Chandy model: both send and receive block until the
// connector fires a transition involving the port.
package reo

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/wire"
)

// Outport is a task's sending end of a connector boundary vertex.
type Outport interface {
	// Send offers v to the connector and blocks until some transition
	// accepts it (or the connector closes).
	Send(v any) error
	// SendBatch offers every item of vs in order as one registered
	// operation and blocks until the last is accepted. A batch is an
	// ordered sequence of independent items, not an atomic group: the
	// connector accepts them one transition firing at a time, exactly as
	// len(vs) consecutive Send calls would be observed, but the whole
	// batch pays for one engine-lock registration and one completion
	// handshake. The connector reads vs in place; do not mutate it until
	// SendBatch returns. An empty batch is a no-op. On a non-nil error
	// (connector closed or broken mid-batch) a prefix of vs may already
	// have been accepted by fired transitions; a producer that must
	// reconcile an interrupted stream should make items idempotent or
	// carry sequence numbers, as with any failed send.
	SendBatch(vs []any) error
	// Name returns the vertex name the port is linked to.
	Name() string
}

// Inport is a task's receiving end of a connector boundary vertex.
type Inport interface {
	// Recv blocks until the connector delivers a value.
	Recv() (any, error)
	// RecvBatch blocks until the connector has delivered a value into
	// every slot of buf, in order, as one registered operation — the
	// receiving mirror of Outport.SendBatch. Returns how many leading
	// slots hold delivered values: len(buf) on nil error, possibly fewer
	// when the connector closed or broke mid-batch. An empty buffer is a
	// no-op.
	RecvBatch(buf []any) (int, error)
	Name() string
}

// Mode selects the compilation/execution approach for a connector
// instance.
type Mode uint8

const (
	// JIT is the paper's new approach with just-in-time composition:
	// medium automata are instantiated at connect time and composite
	// states are expanded only when reached (§IV-D).
	JIT Mode = iota
	// AOT is the new approach with ahead-of-time composition: the full
	// reachable composite space is expanded at connect time.
	AOT
	// Static emulates the existing (pre-parametrization) compiler: the
	// whole "large automaton" is materialized for one concrete N before
	// execution, with hiding and transition-label simplification
	// applied. Connect fails with ErrTooLarge when the automaton
	// exceeds size limits — as the existing compiler does (§V-B).
	Static
)

// String renders the mode as its lower-case CLI name.
func (m Mode) String() string {
	switch m {
	case JIT:
		return "jit"
	case AOT:
		return "aot"
	default:
		return "static"
	}
}

// ErrTooLarge reports that composition exceeded configured size limits.
var ErrTooLarge = ca.ErrTooLarge

// Funcs registers the data functions available to Filter.* and
// Transformer.* primitives. Filters and transformers must be pure
// (deterministic, side-effect free): the engine evaluates guards only
// when an operation or a fired step can have changed their inputs, and
// runs transformations exactly once per fired step.
type Funcs = compile.Funcs

// CompileOption configures Compile.
type CompileOption func(*Program)

// WithFuncs registers data functions.
func WithFuncs(f Funcs) CompileOption {
	return func(p *Program) { p.funcs = f }
}

// Program is a compiled protocol program: a set of connector definitions
// and optional main definitions.
// Program is safe for concurrent use once compiled.
type Program struct {
	file  *ast.File
	info  *sema.Info
	funcs Funcs
	copts compile.Options

	mu        sync.Mutex
	templates map[string]*compile.Template

	// poolMu guards pools: per-template freelists of recycled instances
	// (WithReuse), one pool per distinct (options, lengths) shape.
	poolMu sync.Mutex
	pools  map[string][]*instancePool
}

// instancePool is the freelist of recycled instances for one template
// under one exact configuration: only a Connect with equal options and
// equal lengths may receive a pooled instance, so recycling is
// observationally invisible (per-seed choice streams replay, counters
// restart at zero).
type instancePool struct {
	cfg     connectCfg
	lengths map[string]int
	mu      sync.Mutex
	free    []*Instance
}

func (pl *instancePool) get() *Instance {
	pl.mu.Lock()
	n := len(pl.free)
	if n == 0 {
		pl.mu.Unlock()
		return nil
	}
	inst := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	pl.mu.Unlock()
	inst.pooling.Store(false)
	return inst
}

func (pl *instancePool) put(inst *Instance) {
	pl.mu.Lock()
	pl.free = append(pl.free, inst)
	pl.mu.Unlock()
}

func sameLengths(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// poolFor finds (or creates) the instance pool for one template name +
// configuration + lengths shape. The linear scan compares comparable
// configs and small maps in place, so the steady-state lookup builds no
// composite key and allocates nothing.
func (p *Program) poolFor(name string, cfg *connectCfg, lengths map[string]int) *instancePool {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	if p.pools == nil {
		p.pools = make(map[string][]*instancePool)
	}
	for _, pl := range p.pools[name] {
		if pl.cfg == *cfg && sameLengths(pl.lengths, lengths) {
			return pl
		}
	}
	lcopy := make(map[string]int, len(lengths))
	for k, v := range lengths {
		lcopy[k] = v
	}
	pl := &instancePool{cfg: *cfg, lengths: lcopy}
	p.pools[name] = append(p.pools[name], pl)
	return pl
}

// Compile parses and checks a program in the textual syntax.
func Compile(src string, opts ...CompileOption) (*Program, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	p := &Program{
		file:      f,
		info:      info,
		copts:     compile.Options{Simplify: true},
		templates: make(map[string]*compile.Template),
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustCompile is Compile, panicking on error. For tests and package-level
// connector constants.
func MustCompile(src string, opts ...CompileOption) *Program {
	p, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Definitions lists the connector definitions in the program.
func (p *Program) Definitions() []string {
	out := make([]string, 0, len(p.file.Defs))
	for _, d := range p.file.Defs {
		out = append(out, d.Name)
	}
	return out
}

// Connector compiles the named definition into a parametrized template.
// Templates are cached per program.
func (p *Program) Connector(name string) (*Connector, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.templates[name]; ok {
		return &Connector{prog: p, tmpl: t}, nil
	}
	t, err := compile.Build(p.info, name, p.funcs, p.copts)
	if err != nil {
		return nil, err
	}
	p.templates[name] = t
	return &Connector{prog: p, tmpl: t}, nil
}

// MustConnector is Connector, panicking on error.
func (p *Program) MustConnector(name string) *Connector {
	c, err := p.Connector(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Connector is a compiled, parametrized connector template.
type Connector struct {
	prog *Program
	tmpl *compile.Template
}

// Name returns the definition name.
func (c *Connector) Name() string { return c.tmpl.Name }

// Template exposes the compiled template (for cmd/reoc inspection).
func (c *Connector) Template() *compile.Template { return c.tmpl }

// connectCfg holds instance options. It stays comparable (scalars and
// pointers only): instance pools match recycled instances by comparing
// whole configurations.
type connectCfg struct {
	mode       Mode
	partition  PartitionMode
	workers    int
	expand     ca.ExpandMode
	cacheSize  int
	seed       int64
	maxStates  int
	simplify   bool
	runtime    *engine.Runtime
	useRuntime bool
	reuse      bool
	// remote is stored by pointer so connectCfg stays comparable; the
	// topology itself is treated as immutable after Connect.
	remote *RemoteTopology
}

// ErrInvalidOption is the sentinel every Connect option-validation
// error wraps: errors.Is(err, ErrInvalidOption) detects misconfigured
// Connect calls without matching on message text.
var ErrInvalidOption = errors.New("reo: invalid connect option")

// OptionError reports an incompatible or out-of-range Connect option.
// It wraps ErrInvalidOption.
type OptionError struct {
	// Option names the offending option as written ("WithWorkers").
	Option string
	// Reason says what about it is invalid.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("reo: invalid option %s: %s", e.Option, e.Reason)
}

// Unwrap makes errors.Is(err, ErrInvalidOption) hold.
func (e *OptionError) Unwrap() error { return ErrInvalidOption }

// validate rejects incompatible or out-of-range option combinations
// eagerly, at Connect time, instead of silently ignoring them.
func (c *connectCfg) validate() error {
	if c.cacheSize < 0 {
		return &OptionError{Option: "WithStateCache", Reason: fmt.Sprintf("negative cache size %d", c.cacheSize)}
	}
	if c.maxStates < 0 {
		return &OptionError{Option: "WithMaxStates", Reason: fmt.Sprintf("negative state bound %d", c.maxStates)}
	}
	if c.workers != 0 && c.partition != PartitionRegions {
		return &OptionError{Option: "WithWorkers", Reason: fmt.Sprintf("requires WithPartitioning(PartitionRegions), not %s", c.partition)}
	}
	if c.useRuntime && c.partition != PartitionRegions {
		return &OptionError{Option: "WithRuntime", Reason: fmt.Sprintf("requires WithPartitioning(PartitionRegions), not %s", c.partition)}
	}
	if c.useRuntime && c.workers != 0 {
		return &OptionError{Option: "WithRuntime", Reason: "mutually exclusive with WithWorkers (a shared runtime brings its own pool)"}
	}
	if c.reuse && c.workers != 0 {
		return &OptionError{Option: "WithReuse", Reason: "incompatible with WithWorkers: a dedicated pool is torn down at Close and cannot be recycled; share a pool with WithRuntime instead"}
	}
	if c.remote != nil {
		if c.partition != PartitionRegions {
			return &OptionError{Option: "WithRemoteRegions", Reason: fmt.Sprintf("requires WithPartitioning(PartitionRegions) — regions are the unit of distribution, not %s partitions", c.partition)}
		}
		if c.mode == Static {
			return &OptionError{Option: "WithRemoteRegions", Reason: "incompatible with WithMode(Static): the static product is one global automaton and cannot be cut across processes"}
		}
		if c.reuse {
			return &OptionError{Option: "WithRemoteRegions", Reason: "incompatible with WithReuse: Close tears the peer connections down, so a remote instance cannot be recycled"}
		}
	}
	if c.mode == Static && c.partition != PartitionOff {
		return &OptionError{Option: "WithPartitioning", Reason: "incompatible with WithMode(Static): the static product is one global automaton and cannot be partitioned"}
	}
	return nil
}

// ConnectOption configures a connector instance.
type ConnectOption func(*connectCfg)

// WithMode selects JIT (default), AOT, or Static execution.
func WithMode(m Mode) ConnectOption { return func(c *connectCfg) { c.mode = m } }

// PartitionMode selects how Connect splits an instance into
// independently locked engines.
type PartitionMode uint8

const (
	// PartitionOff runs the whole connector in one engine under one lock.
	PartitionOff PartitionMode = iota
	// PartitionRegions splits the constituents into connected
	// components of the shared-port graph (the §V-C(3) optimization:
	// components share no ports, so no consensus between them is ever
	// needed) and additionally cuts at buffer constituents (Fifo1/
	// Fifo1Full shapes, detected structurally): a full buffer never
	// requires consensus across it, so its two sides become separate
	// synchronous regions joined by a bounded queue and fire
	// concurrently — even when the connector is a single component.
	PartitionRegions
)

// String renders the partition mode as its lower-case CLI name.
func (m PartitionMode) String() string {
	if m == PartitionRegions {
		return "regions"
	}
	return "off"
}

// WithPartitioning selects the partitioning mode. Connect refuses any
// partitioning combined with WithMode(Static) with an OptionError: the
// static product is one global automaton.
func WithPartitioning(mode PartitionMode) ConnectOption {
	return func(c *connectCfg) { c.partition = mode }
}

// WithWorkers runs the regions of a PartitionRegions instance on an
// n-worker scheduler: cross-region wake-ups go to a worker pool (a
// worker continues with the regions its own fires woke; idle workers
// take its surplus) instead of being drained inline on the goroutine
// whose Send/Recv fired, so the regions of one connector occupy up to n
// cores concurrently.
//
// n = 0 (the default) keeps today's synchronous draining: all region
// fires run on the callers' goroutines, which preserves the strongest
// reproducibility (with WithSeed and deterministic task order, whole
// runs replay exactly) and avoids pool overhead for connectors whose
// regions are short or serial. n < 0 selects runtime.GOMAXPROCS(0).
// The pool is capped at the region count. Connect fails with an
// OptionError unless WithPartitioning(PartitionRegions) is in effect;
// it is also mutually exclusive with WithRuntime (a shared runtime
// brings its own pool) and with WithReuse (a dedicated pool is torn
// down at Close, so the instance cannot be recycled).
//
// Determinism: per-port delivered sequences of deterministic protocols
// are identical in both modes (the differential tests pin this); the
// interleaving across regions, and therefore the choices of protocols
// that race cross-region timing, follow the scheduler. Each region
// still resolves its local nondeterminism from WithSeed + its region
// index, and the per-worker τ budget mirrors the synchronous walk's
// livelock guard (MaxTauBurst).
func WithWorkers(n int) ConnectOption {
	return func(c *connectCfg) { c.workers = n }
}

// Runtime is a shared worker pool multiplexing the regions of many
// connector instances over one fixed set of goroutines — the
// serving-many-instances counterpart of the per-instance pool
// WithWorkers starts. Build one with NewRuntime, or let WithRuntime(nil)
// use the process-global default.
type Runtime = engine.Runtime

// RuntimeStats is the scheduling-counter snapshot Runtime.Stats returns.
type RuntimeStats = engine.RuntimeStats

// NewRuntime starts a shared runtime with the given number of workers
// (<= 0 selects GOMAXPROCS). Close it only after every instance
// attached to it has been closed.
func NewRuntime(workers int) *Runtime { return engine.NewRuntime(workers) }

// DefaultRuntime returns the process-global shared runtime backing
// WithRuntime(nil), starting its GOMAXPROCS workers on first use. It is
// never shut down.
func DefaultRuntime() *Runtime { return engine.DefaultRuntime() }

// WithRuntime runs the regions of a PartitionRegions instance on a
// shared Runtime instead of a dedicated pool: the instance attaches at
// Connect and detaches at Close, so N live instances are multiplexed
// over one fixed set of workers — and Connect/Close churn spawns no
// goroutines. rt == nil selects the process-global DefaultRuntime.
//
// Execution semantics match WithWorkers (the same scheduler,
// per-region seeds, the τ-livelock budget — scoped per instance, so one
// instance's throughput never masks another's livelock); only pool
// ownership differs. Connect fails with an OptionError unless
// WithPartitioning(PartitionRegions) is in effect, or if WithWorkers is
// also set.
func WithRuntime(rt *Runtime) ConnectOption {
	return func(c *connectCfg) { c.runtime, c.useRuntime = rt, true }
}

// WithReuse pools instances per template and configuration: Close
// resets the instance to its initial state and parks it, and the next
// Connect of the same Connector with the same options and lengths pops
// it instead of building a new one, so steady-state Connect/Close churn
// costs near-zero allocations.
//
// The contract a recycling caller accepts: Close must be called exactly
// once per Connect, and no port or statistics access may follow it —
// the instance (and its ports) may already belong to another Connect
// caller. Counters read as freshly zeroed on the recycled instance and
// the choice stream replays from the seed; only Expansions can differ
// from a truly fresh instance (the composite-state cache stays warm, and
// a state the earlier runs visited only once is expanded again and kept
// on its next visit).
// Incompatible with WithWorkers (see WithRuntime).
func WithReuse(on bool) ConnectOption {
	return func(c *connectCfg) { c.reuse = on }
}

// RemoteTopology places the regions of a PartitionRegions instance
// across processes: every process runs the same program, connects the
// same connector with the same lengths, seed, and topology, and hosts
// the regions assigned to its node name. The cut links between nodes
// are carried over TCP (one connection per node pair) as framed batch
// messages with end-to-end flow control sized to the planned queue
// capacity, so the distributed run fires the same steps, in the same
// per-port order, as the single-process run.
//
// Use `reoc regions <file> <connector> -n <N>` to see the region plan
// the assignment refers to. Values crossing node boundaries are encoded
// with encoding/gob; concrete types beyond numbers, strings, bools,
// []byte, []any and map[string]any must be registered on every node
// with RegisterWireType.
type RemoteTopology struct {
	// Node is this process's name in Nodes.
	Node string
	// Nodes maps node names to their listen addresses ("host:port").
	Nodes map[string]string
	// Regions assigns plan region indices to node names. Every region
	// must be assigned to exactly one node.
	Regions map[string][]int
	// Listener, when non-nil, accepts peer connections instead of
	// listening on Nodes[Node] (tests use a 127.0.0.1:0 listener).
	Listener net.Listener
	// DialTimeout bounds connection establishment per peer, retries
	// included (default 10s) — peers started slightly apart connect as
	// soon as both listen.
	DialTimeout time.Duration
}

// WithRemoteRegions distributes the instance's regions across processes
// according to the topology: Connect builds engines only for the
// regions assigned to topo.Node, connects the peer nodes (dialing with
// capped-backoff retry, so start order does not matter), and verifies
// in the handshake that every process instantiated the same connector,
// lengths, seed, and assignment. Requires
// WithPartitioning(PartitionRegions); incompatible with WithMode(Static)
// and WithReuse. Close notifies the peers, which close their ends in
// turn. A connection failure breaks the local regions: pending and
// future operations fail wrapping engine.ErrLinkBroken.
func WithRemoteRegions(topo *RemoteTopology) ConnectOption {
	return func(c *connectCfg) { c.remote = topo }
}

// ErrLinkBroken is the sentinel a distributed instance's operations
// fail with when a peer connection drops or violates the protocol.
var ErrLinkBroken = engine.ErrLinkBroken

// RegisterWireType registers a concrete value type for transmission
// over distributed region links. The wire protocol encodes the common
// payload types (nil, bool, the int/uint family, floats, string,
// []byte, []any) with a compact typed fast path; anything else rides a
// per-value gob fallback and must be registered — identically on every
// node of the topology — before the first Connect.
func RegisterWireType(v any) { wire.Register(v) }

// RegisterWireUnit registers a zero-size struct type (a marker value
// like prim.Token) for the wire's two-byte unit encoding: such values
// cost one tag byte plus a table index and decode allocation-free to
// the canonical registered value. Registration order defines the table
// indices, so every node must register the same unit types in the same
// order — in practice, from the same package init functions. Panics if
// the type carries data.
func RegisterWireUnit(v any) { wire.RegisterUnit(v) }

// WithFullExpansion enables the textbook joint-step enumeration, which
// combines independent local steps into single global steps. Exponentially
// many transitions per composite state are possible — the blow-up the
// paper observes for NPB at N >= 16.
func WithFullExpansion(on bool) ConnectOption {
	return func(c *connectCfg) {
		if on {
			c.expand = ca.ExpandFull
		} else {
			c.expand = ca.ExpandConnected
		}
	}
}

// WithStateCache bounds the JIT composite-state cache (the §V-B
// future-work extension) to size states; 0, the default, is unbounded. A
// state is kept on its second visit while fewer than size are kept; after
// that nothing is admitted or evicted, and every other state is expanded
// afresh on each visit. The bound changes speed, memory and Expansions,
// never what fires.
func WithStateCache(size int) ConnectOption {
	return func(c *connectCfg) { c.cacheSize = size }
}

// WithSeed fixes the nondeterministic-choice seed for reproducible runs.
func WithSeed(s int64) ConnectOption { return func(c *connectCfg) { c.seed = s } }

// WithMaxStates bounds composition (AOT expansion; Static product).
func WithMaxStates(n int) ConnectOption { return func(c *connectCfg) { c.maxStates = n } }

// WithStaticSimplify toggles transition-label simplification of the
// Static mode's large automaton (default on; the E7 ablation).
func WithStaticSimplify(on bool) ConnectOption {
	return func(c *connectCfg) { c.simplify = on }
}

// Instance is a live connector coordinating tasks through its ports.
type Instance struct {
	coord engine.Coordinator
	asm   *compile.Assembly

	outs map[string][]*engine.Outport
	ins  map[string][]*engine.Inport

	// pool is the freelist Close recycles the instance into (nil unless
	// connected WithReuse); pooling guards against a double Close
	// recycling the same instance twice.
	pool    *instancePool
	pooling atomic.Bool
}

// Connect instantiates the connector for the given array lengths (one
// entry per array parameter; scalar parameters need none). The returned
// instance owns fresh ports for every boundary vertex.
func (c *Connector) Connect(lengths map[string]int, opts ...ConnectOption) (*Instance, error) {
	cfg := &connectCfg{simplify: true}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.useRuntime && cfg.runtime == nil {
		// Resolve before validation and pool keying, so all
		// WithRuntime(nil) instances share one pool entry.
		cfg.runtime = engine.DefaultRuntime()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var pool *instancePool
	if cfg.reuse {
		pool = c.prog.poolFor(c.tmpl.Name, cfg, lengths)
		if inst := pool.get(); inst != nil {
			return inst, nil
		}
	}
	asm, err := c.tmpl.Instantiate(lengths)
	if err != nil {
		return nil, err
	}
	coord, err := buildCoordinator(asm, c.tmpl.Name, cfg)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		coord: coord,
		asm:   asm,
		outs:  make(map[string][]*engine.Outport),
		ins:   make(map[string][]*engine.Inport),
		pool:  pool,
	}
	for name, ports := range asm.Tails {
		for _, p := range ports {
			inst.outs[name] = append(inst.outs[name], engine.NewOutport(coord, p, asm.U.Name(p)))
		}
	}
	for name, ports := range asm.Heads {
		for _, p := range ports {
			inst.ins[name] = append(inst.ins[name], engine.NewInport(coord, p, asm.U.Name(p)))
		}
	}
	return inst, nil
}

func buildCoordinator(asm *compile.Assembly, name string, cfg *connectCfg) (engine.Coordinator, error) {
	eopts := engine.Options{
		Expand:    cfg.expand,
		CacheSize: cfg.cacheSize,
		Seed:      cfg.seed,
		MaxStates: cfg.maxStates,
		Workers:   cfg.workers,
		Runtime:   cfg.runtime,
	}
	switch cfg.mode {
	case Static:
		lim := ca.ProductLimits{MaxStates: cfg.maxStates}
		large, err := ca.ProductAll(asm.Auts, cfg.expand, lim)
		if err != nil {
			return nil, fmt.Errorf("reo: static compilation failed: %w", err)
		}
		hidden := asm.U.NewSet()
		large.Ports.ForEach(func(p ca.PortID) {
			if asm.U.DirOf(p) == ca.DirNone {
				hidden.Set(p)
			}
		})
		large = ca.Hide(large, hidden)
		if cfg.simplify {
			vis := func(p ca.PortID) bool { return asm.U.DirOf(p) != ca.DirNone }
			simplified, err := ca.Simplify(large, vis)
			if err != nil {
				return nil, fmt.Errorf("reo: static simplification failed: %w", err)
			}
			large = simplified
		}
		return engine.New(asm.U, []*ca.Automaton{large}, eopts)
	case AOT:
		eopts.Composition = engine.AOT
	default:
		eopts.Composition = engine.JIT
	}
	if cfg.partition == PartitionRegions {
		if cfg.remote != nil {
			return buildRemote(asm, name, cfg, eopts)
		}
		return engine.NewMultiRegions(asm.U, asm.Auts, eopts)
	}
	return engine.New(asm.U, asm.Auts, eopts)
}

// buildRemote resolves the topology against the instance's region plan
// and builds the placed coordinator over a TCP transport. Assignment
// mistakes surface as *OptionError before anything listens or dials.
func buildRemote(asm *compile.Assembly, name string, cfg *connectCfg, eopts engine.Options) (engine.Coordinator, error) {
	topo := cfg.remote
	bad := func(format string, args ...any) error {
		return &OptionError{Option: "WithRemoteRegions", Reason: fmt.Sprintf(format, args...)}
	}
	if topo.Node == "" {
		return nil, bad("empty node name")
	}
	if _, ok := topo.Nodes[topo.Node]; !ok {
		return nil, bad("node %q has no address in Nodes", topo.Node)
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	regionNode := make([]string, len(plan.Regions))
	for node, ris := range topo.Regions {
		if _, ok := topo.Nodes[node]; !ok {
			return nil, bad("assignment names node %q, which has no address in Nodes", node)
		}
		for _, ri := range ris {
			if ri < 0 || ri >= len(plan.Regions) {
				return nil, bad("region %d out of range: the plan for these lengths has %d regions (inspect with `reoc regions`)", ri, len(plan.Regions))
			}
			if regionNode[ri] != "" {
				return nil, bad("region %d assigned to both %q and %q", ri, regionNode[ri], node)
			}
			regionNode[ri] = node
		}
	}
	for ri, n := range regionNode {
		if n == "" {
			return nil, bad("region %d not assigned to any node: the plan for these lengths has %d regions (inspect with `reoc regions`)", ri, len(plan.Regions))
		}
	}
	hosted := make([]bool, len(plan.Regions))
	for ri, n := range regionNode {
		hosted[ri] = n == topo.Node
	}
	// The handshake identity pins everything that must match for the
	// processes to be halves of the same run: the connector, the seed
	// (per-region choice streams derive from it), the plan shape, and
	// the assignment itself.
	parts := []string{name, fmt.Sprintf("seed=%d", cfg.seed), fmt.Sprintf("regions=%d", len(plan.Regions))}
	for li, lk := range plan.Links {
		parts = append(parts, fmt.Sprintf("link %d: %d@%s -> %d@%s cap %d full %v",
			li, lk.From, regionNode[lk.From], lk.To, regionNode[lk.To], lk.Capacity, lk.Full))
	}
	tr := engine.NewTCPTransport(engine.TCPConfig{
		Node:        topo.Node,
		Nodes:       topo.Nodes,
		RegionNode:  regionNode,
		Listener:    topo.Listener,
		Identity:    wire.IdentitySum(parts...),
		DialTimeout: topo.DialTimeout,
	})
	return engine.NewMultiRegionsPlaced(asm.U, asm.Auts, eopts, engine.Placement{Hosted: hosted, Transport: tr})
}

// Outports returns the task-side sending ports bound to a tail parameter,
// in array order.
func (i *Instance) Outports(param string) []Outport {
	ps := i.outs[param]
	out := make([]Outport, len(ps))
	for k, p := range ps {
		out[k] = p
	}
	return out
}

// Outport returns the single port of a scalar tail parameter (or the
// first element of an array).
func (i *Instance) Outport(param string) Outport {
	ps := i.outs[param]
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// Inports returns the task-side receiving ports bound to a head
// parameter, in array order.
func (i *Instance) Inports(param string) []Inport {
	ps := i.ins[param]
	out := make([]Inport, len(ps))
	for k, p := range ps {
		out[k] = p
	}
	return out
}

// Inport returns the single port of a scalar head parameter.
func (i *Instance) Inport(param string) Inport {
	ps := i.ins[param]
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// Close shuts the connector down; all pending and future operations
// fail. Idempotent and safe to call concurrently. Under WithReuse,
// Close additionally resets the instance and parks it in its template's
// pool — see WithReuse for the exactly-once contract that implies for
// recycling callers.
func (i *Instance) Close() error {
	err := i.coord.Close()
	if i.pool != nil && i.pooling.CompareAndSwap(false, true) {
		type resetter interface{ Reset() error }
		if r, ok := i.coord.(resetter); ok && r.Reset() == nil {
			i.pool.put(i)
		}
		// A coordinator that cannot reset is simply dropped: the next
		// Connect builds fresh. pooling stays set so a racing Close
		// cannot recycle twice.
	}
	return err
}

// Steps returns the number of global execution steps fired — the metric
// of the paper's connector benchmarks.
func (i *Instance) Steps() int64 { return i.coord.Steps() }

// Expansions returns how many times a composite state has been expanded
// at run time (composition work deferred to run time). Every expansion
// counts: a state visited once costs 1 and a state kept on its second
// visit 2; once a WithStateCache bound is reached, a state not kept costs
// 1 on every visit.
func (i *Instance) Expansions() int64 { return i.coord.Expansions() }

// PlansCompiled returns how many transition plans the instance has
// compiled since it was built: one per distinct cluster of local
// transitions, however many composite states contain it. A recycled
// instance (WithReuse) keeps its plans, so the count carries over.
func (i *Instance) PlansCompiled() int64 { return i.coord.PlansCompiled() }

// GuardEvals returns the number of candidate transitions whose guards the
// engine evaluated while dispatching. Together with Steps it measures the
// per-step matching work: GuardEvals()/Steps() is the average number of
// transitions considered per fired global step.
func (i *Instance) GuardEvals() int64 { return i.coord.GuardEvals() }

// Constituents returns the number of constituent automata of the
// instance (1 in Static mode).
func (i *Instance) Constituents() int { return len(i.asm.Auts) }

// Partitions returns the number of partitions planned (1 unless
// partitioning is enabled). Under PartitionRegions that counts a relay
// region spliced into a link, and one another process hosts, though
// neither runs an engine here.
func (i *Instance) Partitions() int {
	if m, ok := i.coord.(*engine.Multi); ok {
		return m.Partitions()
	}
	return 1
}

// Workers returns the size of the scheduler pool the instance's regions
// fire on (see WithWorkers), or 0 when cross-region progress is driven
// synchronously by the tasks' own goroutines.
func (i *Instance) Workers() int {
	if m, ok := i.coord.(*engine.Multi); ok {
		return m.Workers()
	}
	return 0
}

// RegionInfo is a per-partition statistics snapshot (see
// Instance.Regions).
type RegionInfo struct {
	// Constituents counts the automata executing in the partition,
	// including node automata synthesized for link endpoints.
	Constituents int
	// Links counts the buffered link endpoints attached to the partition
	// (0 unless PartitionRegions cut a buffer at its boundary).
	Links int
	// Worker is the region's home worker under WithWorkers/WithRuntime:
	// the one whose inbox its wake-ups from tasks are queued on (any
	// worker may run it). -1 when the instance runs without a worker pool.
	Worker int
	// Endpoint reports a region holding only the node of a task's port
	// and one link to a region of this process: its operations move items
	// straight between the task and the link, with no dispatch, so its
	// Expansions are 0.
	Endpoint bool
	// Steps/Expansions/GuardEvals are the partition's share of the
	// instance counters.
	Steps, Expansions, GuardEvals int64
}

// Regions returns one entry per partition of the instance: the
// synchronous regions under WithPartitioning(PartitionRegions), and a
// single entry otherwise. A region with no engine here — a relay
// spliced into a link, whose hops the chain's consuming region counts,
// or one another process hosts — has an empty entry with Worker -1. An
// endpoint region has Endpoint set.
func (i *Instance) Regions() []RegionInfo {
	if m, ok := i.coord.(*engine.Multi); ok {
		infos := m.Infos()
		out := make([]RegionInfo, len(infos))
		for k, in := range infos {
			out[k] = RegionInfo{
				Constituents: in.Constituents,
				Links:        in.Links,
				Worker:       in.Worker,
				Endpoint:     in.Endpoint,
				Steps:        in.Steps,
				Expansions:   in.Expansions,
				GuardEvals:   in.GuardEvals,
			}
		}
		return out
	}
	return []RegionInfo{{
		Constituents: len(i.asm.Auts),
		Worker:       -1,
		Steps:        i.coord.Steps(),
		Expansions:   i.coord.Expansions(),
		GuardEvals:   i.coord.GuardEvals(),
	}}
}

// SetTracer installs a hook receiving a rendered description of every
// global execution step the connector fires ("step 3: {a->5, b<-5}"),
// for debugging protocols. Pass nil to clear. The hook runs inside the
// engine's critical section: keep it fast and do not perform port
// operations from it.
func (i *Instance) SetTracer(fn func(string)) {
	type traceable interface{ SetTracer(engine.Tracer) }
	tr, ok := i.coord.(traceable)
	if !ok {
		return
	}
	if fn == nil {
		tr.SetTracer(nil)
		return
	}
	tr.SetTracer(func(e engine.TraceEvent) { fn(e.String()) })
}

// Backend is the name-addressed runtime contract shared by interpreted
// instances and the packages emitted by `reoc gen`: Send/Recv and their
// batched forms keyed by boundary vertex name, parameter-to-vertex
// lookup, and the Steps/GuardEvals/OpsRegistered statistics. Code
// written against Backend runs unchanged on either backend — pass it
// Instance.Backend() or a generated package's New() result.
type Backend = engine.Backend

// Backend adapts the instance to the shared backend contract, for code
// that must run interchangeably on the interpreted engine and on
// statically generated connectors (differential tests, benchmarks, the
// quickstart walkthrough).
func (i *Instance) Backend() Backend {
	sources := make(map[string][]engine.NamedPort)
	for param, ps := range i.outs {
		for _, p := range ps {
			sources[param] = append(sources[param], engine.NamedPort{Name: p.Name(), ID: int32(p.ID())})
		}
	}
	sinks := make(map[string][]engine.NamedPort)
	for param, ps := range i.ins {
		for _, p := range ps {
			sinks[param] = append(sinks[param], engine.NamedPort{Name: p.Name(), ID: int32(p.ID())})
		}
	}
	return engine.NewNamed(i.coord, sources, sinks)
}

// Universe exposes the instance universe (diagnostics, cmd/reoc).
func (i *Instance) Universe() *ca.Universe { return i.asm.U }

// Automata exposes the instance's constituent automata (diagnostics).
func (i *Instance) Automata() []*ca.Automaton { return i.asm.Auts }
