package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ca"
)

// ErrClosed is returned by operations on a closed connector.
var ErrClosed = errors.New("engine: connector closed")

// ErrPortBusy is returned when a second operation is attempted on a port
// that already has one pending. Ports are single-owner.
var ErrPortBusy = errors.New("engine: port already has a pending operation")

// ErrLivelock is returned when the engine fires an excessive burst of
// internal (τ) steps without completing any boundary operation.
var ErrLivelock = errors.New("engine: internal-step livelock")

// Composition selects when composite states are expanded.
type Composition uint8

const (
	// JIT expands a composite state the first time it is reached
	// (just-in-time composition, §IV-D).
	JIT Composition = iota
	// AOT expands the entire reachable composite state space at
	// construction time (ahead-of-time composition, §IV-D).
	AOT
)

// Options configure an Engine.
type Options struct {
	Composition Composition
	Expand      ca.ExpandMode
	// CacheSize bounds the number of composite states kept on their second
	// visit (0 = unbounded). Once that many are kept no state is admitted
	// and none is evicted: every other state expands into the reused
	// first-visit table on every visit. Ignored for AOT.
	CacheSize int
	// Seed makes nondeterministic transition selection reproducible.
	Seed int64
	// MaxStates bounds AOT expansion (0 = 1<<20).
	MaxStates int
	// MaxTauBurst bounds consecutive internal steps (0 = 1<<20).
	MaxTauBurst int
	// Workers selects the dedicated concurrent runtime for
	// NewMultiRegions: the number of pool workers region engines fire on
	// (capped at the region count), with cross-region nudges posted as
	// wake-ups. 0 runs the synchronous nudge-draining path on the
	// callers' goroutines; negative means GOMAXPROCS. Ignored outside
	// region partitioning, and mutually exclusive with Runtime.
	Workers int
	// Runtime attaches the region engines to a shared worker pool
	// (runtime.go) instead of starting a dedicated one: many instances
	// multiplex over its fixed workers, and Close detaches rather than
	// tearing the pool down. Only meaningful for NewMultiRegions.
	Runtime *Runtime
}

// op is one port operation. Every op is a batch: vals holds the items —
// the values to send on a source port, or the destination buffer of a
// receive on a sink port — and cur counts how many of them fired
// transitions have already moved. Scalar Send/Recv are the k=1 case on the
// same code path: they alias the one-slot inline array, so the firing path
// never branches on scalar-vs-batch.
//
// An op starts life in its engine's scratch slot. One whose last item fires
// (or which a break fails) before register's fire loop quiesces never
// leaves it: register hands the result back under the lock. Only an op
// that must wait for a peer migrates to a pooled op and parks (see
// register).
type op struct {
	send bool
	// vals are the operation's items; the engine reads/writes vals[cur]
	// and the op completes when cur reaches len(vals). Batched operations
	// alias the caller's slice (the caller must not touch it until the
	// operation returns); scalar operations alias inline.
	vals   []any
	cur    int
	inline [1]any
	err    error
	// done carries the single completion signal of a parked op; nil on the
	// scratch slot, which nobody waits for. It is buffered so the engine
	// never blocks signaling it, and reusable so a completed op returns to
	// the pool instead of being reallocated per park.
	done chan struct{}
}

// remaining returns how many items the op still has to move.
func (o *op) remaining() int { return len(o.vals) - o.cur }

// Engine coordinates one connector instance (or one partition of one).
type Engine struct {
	u    *ca.Universe
	auts []*ca.Automaton
	opts Options

	mu    sync.Mutex
	state []int32
	cells []any
	// initCells snapshots the initial cell values so Reset can restore
	// them without allocating.
	initCells []any
	pend      []*op
	pendMask  ca.BitSet
	// boundary marks ports with a task attached (source or sink).
	// Ports outside it are internal vertices: they appear in
	// synchronization sets purely to couple constituents and require no
	// pending operation.
	boundary ca.BitSet
	dirs     []ca.Dir
	cache    *jointCache
	packer   *ca.StatePacker
	// expander enumerates the joint steps of composite states the cache
	// does not hold; its cluster memo and the plans compiled into it live
	// as long as the engine, whatever the cache bound (see ca.Expander).
	// Like the rest of expandState's working set below, it is set up by
	// the first expansion, not by New.
	expander *ca.Expander
	// cur is the expansion of the current composite state when it is
	// known without a lookup, nil otherwise.
	cur *expanded
	// once is the table first visits, and every visit the cache cannot
	// admit, expand into, overwritten by the next one: never cached, and
	// no successor link leads to or from it (see expandState).
	once *expanded
	// bound, when non-nil, is the complete table BindGen lowered a
	// generated template into, indexed by the region automaton's local
	// state: expandState answers from it and never expands (see gen.go).
	bound []*expanded
	// gates is boundary ∪ linkGate: the ports dispatch is indexed by.
	gates ca.BitSet
	// stepBuf, portFill and portBuf are scratch: the clusters of the state
	// being expanded, and indexPorts' one counter per port and list of
	// ports seen.
	stepBuf  []*ca.Cluster
	portFill []int32
	portBuf  []ca.PortID
	rng      pickRNG
	closed   bool
	// node marks a region that holds one synthesized node and nothing
	// else, whose transition needs no dispatch (see initLinks): a relay,
	// whose port faces no task, between one inbound and some outbound
	// links, or, with endpoint set, a region whose port faces a task and
	// holds one link to a region of this process. Its passes, and an
	// endpoint's registrations, run nodePass instead of the fire loop.
	// Both sit beside closed, in what would be padding, so the fields the
	// firing path reads keep their offsets.
	node     bool
	endpoint bool
	broken   error
	tracer   Tracer
	// enabledBuf is the reusable candidate buffer of fireLoop.
	enabledBuf []int32
	// scratch is the op every operation registers in; it is pending only
	// inside register's critical section, so no other goroutine ever sees
	// it. opPool holds the channel-carrying ops that parked operations
	// migrate to.
	scratch op
	opPool  sync.Pool

	// Region-link support (see region.go). All nil/empty unless the
	// engine is one region of a NewMultiRegions coordinator.
	//
	// ends holds the link endpoints, one entry per port that has any;
	// linkAt[p] is 1 + the index in ends of port p's entry, 0 for a port
	// without links (sized like pend, so the firing path indexes instead
	// of hashing). linkGate marks the ports with an entry; linkOK the
	// subset whose queue conditions (non-empty to emit, non-full to
	// accept) currently hold. outNudges collects the neighbor regions
	// whose gates this engine's fires changed; the goroutine that fired
	// takes it over before releasing the lock (see walk, flushWakes).
	ends      []linkEnd
	linkAt    []int32
	linkGate  ca.BitSet
	linkOK    ca.BitSet
	outNudges []*Engine
	// outSignals collects the half links (transport.go) whose queue
	// state this engine's fires changed; flushed (with mu held, after
	// fireLoop publishes its commits) as coalescing peer wake-ups.
	outSignals []*link
	group      *regionGroup

	// Worker-runtime support (runtime.go). sched is non-nil when the
	// engine is a region of a coordinator attached to a Runtime
	// (dedicated via Options.Workers, or shared via Options.Runtime);
	// nudges then become wake-ups, run by whoever claims them (a worker,
	// or the task whose operation caused them). schedState is the
	// engine's run state (idle/queued/running/dirty) advanced by CAS;
	// homeWorker the worker whose inbox wake-ups from outside the pool go
	// to. fireCompleted/fireLinkActive report,
	// per fireLoop call (under mu), whether the pass moved any boundary operation
	// forward (a batched operation's item progress counts, and a fused
	// k-step is k items of progress) / touched any link — the runtime's
	// τ-budget signals. linkBurst/lastSeen are the engine's τ-burst
	// accounting against its group's completion counter (one holder runs
	// an engine at a time; both are touched only under mu).
	sched          *Runtime
	schedState     atomic.Int32
	homeWorker     int32
	fireCompleted  bool
	fireLinkActive bool
	linkBurst      int
	lastSeen       int64

	steps      atomic.Int64
	expansions atomic.Int64
	guardEvals atomic.Int64
	registered atomic.Int64
	// plansCompiled, unlike the counters above, is not zeroed by Reset.
	plansCompiled atomic.Int64
}

// New builds an engine over the constituent automata, which must all
// belong to universe u. Port directions are taken from u. For AOT
// composition the reachable composite space is expanded eagerly; ErrTooLarge
// is returned if it exceeds Options.MaxStates — the run-time analogue of
// the existing compiler failing on connectors with huge automata.
func New(u *ca.Universe, auts []*ca.Automaton, opts Options) (*Engine, error) {
	e, err := newEngine(u, auts, opts)
	if err != nil {
		return nil, err
	}
	if err := e.finish(); err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine builds the engine without expanding any state, so region
// construction can attach link endpoints first (compiled plans depend on
// which ports are link endpoints). finish completes construction.
func newEngine(u *ca.Universe, auts []*ca.Automaton, opts Options) (*Engine, error) {
	if len(auts) == 0 {
		return nil, errors.New("engine: no constituent automata")
	}
	for _, a := range auts {
		if a.U != u {
			return nil, errors.New("engine: constituent from foreign universe")
		}
		a.PadToUniverse()
	}
	if opts.MaxTauBurst <= 0 {
		opts.MaxTauBurst = 1 << 20
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	e := &Engine{
		u:         u,
		auts:      auts,
		opts:      opts,
		state:     make([]int32, len(auts)),
		cells:     u.InitialCells(),
		initCells: u.InitialCells(),
		pend:      make([]*op, u.NumPorts()),
		pendMask:  u.NewSet(),
		boundary:  u.NewSet(),
		dirs:      make([]ca.Dir, u.NumPorts()),
		packer:    ca.NewStatePacker(auts),
	}
	e.rng.reseed(opts.Seed)
	for p := range e.dirs {
		e.dirs[p] = u.DirOf(ca.PortID(p))
		if e.dirs[p] != ca.DirNone {
			e.boundary.Set(ca.PortID(p))
		}
	}
	for i, a := range auts {
		e.state[i] = a.Initial
	}
	cacheSize := opts.CacheSize
	if opts.Composition == AOT {
		cacheSize = 0 // AOT requires the full space retained
	}
	e.cache = newJointCache(cacheSize)
	return e, nil
}

// finish completes construction after any link endpoints are attached:
// for AOT composition the reachable composite space is expanded now,
// except on a relay or endpoint region, which never dispatches.
func (e *Engine) finish() error {
	if e.opts.Composition == AOT && !e.node {
		return e.expandAll()
	}
	return nil
}

// expanded is the memoized expansion of one composite state: its joint
// transitions in candidate order, plus dispatch indexes over them. It holds
// nothing of size k per transition: plans are shared with every other
// composite state that offers the same cluster, and successors are the
// clusters' sparse deltas. BindGen builds the same structure, complete and
// with every succ filled, for each local state of a generated region.
type expanded struct {
	plans []*ca.Plan
	// deltas[i] lists the constituents plan i moves and where to.
	deltas [][]ca.Delta
	// succ[i], once plan i has been fired from this state, is the
	// expansion of the state it leads to, so that a state visited before
	// is re-entered without packing and hashing its key. Only kept states
	// link, and only to kept states: the cache never evicts, so a link
	// stays valid for the engine's life. All entries stay nil in the
	// first-visit table (Engine.once).
	succ []*expanded
	// ports lists (ascending) the gated ports that occur in any plan's
	// sync set; byPort[portOff[j]:portOff[j+1]] lists (ascending) the
	// plans whose sync set contains ports[j]: the only transitions a
	// fresh operation on that port can newly enable. Flat slices keep
	// per-state memory proportional to the state's transitions, not to
	// the universe size, at three allocations per state. An empty portOff
	// means the index is not built yet (the first-visit table).
	ports   []ca.PortID
	portOff []int32
	byPort  []int32
	// taus lists plans with no gated port in their sync set; they need
	// no pending operation and are always dispatch candidates.
	taus []int32
	// flow[i] marks plan i as a pure flow: no guards, no cell writes, and
	// a target state equal to the source state. Firing it changes nothing
	// the dispatch scan depends on except operation cursors and link
	// queues, so a pending batch can fuse up to k consecutive firings of
	// it into one dispatch decision (fireLoop's fused fast path).
	flow []bool
}

// plansAt returns the plans whose sync set contains gated port p.
func (ex *expanded) plansAt(p ca.PortID) []int32 {
	j, ok := slices.BinarySearch(ex.ports, p)
	if !ok {
		return nil
	}
	return ex.byPort[ex.portOff[j]:ex.portOff[j+1]]
}

func (e *Engine) dirOf(p ca.PortID) ca.Dir {
	if int(p) >= len(e.dirs) {
		return ca.DirNone
	}
	return e.dirs[p]
}

// planDir classifies ports for plan compilation. It agrees with the
// universe's boundary directions except at link endpoints: an emitting
// endpoint behaves as a source (the plan reads its value from the queue
// head via PlanPortVal), and an accepting endpoint with no other value
// origin behaves as a sink (the plan computes and delivers the value the
// region must push).
func (e *Engine) planDir(p ca.PortID) ca.Dir {
	end := e.endAt(p)
	if end != nil && end.emit != nil {
		return ca.DirSource
	}
	d := e.dirOf(p)
	if d == ca.DirNone && end != nil {
		return ca.DirSink
	}
	return d
}

// expandState returns the expansion of the given composite state, using
// the cache. Must be called with mu held.
//
// The cache keeps a state only when it comes back. The first visit
// leaves a nil entry in the cache and expands into e.once, whose port
// index is built only if fireLoop dispatches through it; the second visit
// expands again and keeps the result, links and all. Where the composite
// space is exponential nearly every state is visited once, and keeping
// those was most of what a run spent its time and memory on. A full
// bounded cache serves every state it does not hold from e.once. AOT
// composition keeps every state it expands.
func (e *Engine) expandState(state []int32) *expanded {
	if e.bound != nil {
		return e.bound[state[0]]
	}
	k := e.packer.Key(state)
	ex, seen := e.cache.get(k)
	if ex != nil {
		return ex
	}
	if e.expander == nil {
		e.expander = ca.NewExpander(e.auts, e.opts.Expand)
		e.initDispatch()
	}
	if (!seen || e.cache.full()) && e.opts.Composition != AOT {
		if e.once == nil {
			e.once = new(expanded)
		}
		e.cache.markSeen(k)
		e.fill(e.once, state)
		e.once.succ = resize(e.once.succ, len(e.once.plans)) // never written: all nil
		e.once.portOff = e.once.portOff[:0]                  // not indexed yet
		return e.once
	}
	ex = new(expanded)
	e.fill(ex, state)
	ex.succ = make([]*expanded, len(ex.plans))
	e.indexPorts(ex)
	e.cache.put(k, ex)
	return ex
}

// fill expands state into ex: the plans of its clusters in candidate
// order, their deltas and pure-flow marks. ex's slices are resized in
// place, so the reused first-visit table stops allocating once it has
// held the largest state.
func (e *Engine) fill(ex *expanded, state []int32) {
	e.stepBuf = e.expander.Expand(state, e.stepBuf[:0])
	n := len(e.stepBuf)
	ex.plans = resize(ex.plans, n)
	ex.deltas = resize(ex.deltas, n)
	ex.flow = resize(ex.flow, n)
	for i, c := range e.stepBuf {
		if c.Plan == nil {
			// Compiled once per cluster, not per composite state: a plan
			// reads nothing but the cluster and the port classification.
			c.Plan = ca.CompilePlan(&ca.Transition{Sync: c.Sync, Guards: c.Guards, Acts: c.Acts}, e.planDir)
			e.plansCompiled.Add(1)
		}
		ex.plans[i] = c.Plan
		ex.deltas[i] = c.Deltas
		ex.flow[i] = len(c.Deltas) == 0 && c.Plan.Guards() == 0 && c.Plan.CellWrites() == 0
	}
	e.expansions.Add(1)
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// initDispatch sets up what indexPorts works from. Link endpoints must be
// final (initLinks).
func (e *Engine) initDispatch() {
	e.gates = e.boundary.Clone()
	if e.linkGate != nil {
		e.gates.OrInto(e.linkGate)
	}
	e.portFill = make([]int32, e.u.NumPorts())
}

// indexPorts builds ex's dispatch indexes in two passes over the gated
// ports of its plans' sync sets: count per port, then fill. Like fill, it
// resizes ex's slices in place.
func (e *Engine) indexPorts(ex *expanded) {
	fill, ports := e.portFill, e.portBuf[:0]
	total := 0
	ex.taus = ex.taus[:0]
	for i, pl := range ex.plans {
		gated := false
		for wi, w := range pl.Sync {
			for w &= e.gates[wi]; w != 0; w &= w - 1 {
				p := ca.PortID(wi*64 + bits.TrailingZeros64(w))
				if fill[p] == 0 {
					ports = append(ports, p)
				}
				fill[p]++
				total++
				gated = true
			}
		}
		if !gated {
			ex.taus = append(ex.taus, int32(i))
		}
	}
	slices.Sort(ports)
	e.portBuf = ports
	ex.ports = append(ex.ports[:0], ports...)
	ex.portOff = resize(ex.portOff, len(ports)+1)
	ex.portOff[0] = 0
	for j, p := range ports {
		ex.portOff[j+1] = ex.portOff[j] + fill[p]
		fill[p] = ex.portOff[j]
	}
	ex.byPort = resize(ex.byPort, total)
	for i, pl := range ex.plans {
		for wi, w := range pl.Sync {
			for w &= e.gates[wi]; w != 0; w &= w - 1 {
				p := ca.PortID(wi*64 + bits.TrailingZeros64(w))
				ex.byPort[fill[p]] = int32(i)
				fill[p]++
			}
		}
	}
	for _, p := range ports {
		fill[p] = 0
	}
}

// expandAll performs AOT composition: BFS over reachable composite states.
func (e *Engine) expandAll() error {
	seen := map[ca.StateKey]bool{e.packer.Key(e.state): true}
	queue := [][]int32{append([]int32(nil), e.state...)}
	tgt := make([]int32, len(e.state))
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		ex := e.expandState(st)
		for _, ds := range ex.deltas {
			copy(tgt, st)
			for _, d := range ds {
				tgt[d.Aut] = d.Target
			}
			k := e.packer.Key(tgt)
			if !seen[k] {
				seen[k] = true
				if len(seen) > e.opts.MaxStates {
					return fmt.Errorf("%w: ahead-of-time composition >%d states", ca.ErrTooLarge, e.opts.MaxStates)
				}
				queue = append(queue, append([]int32(nil), tgt...))
			}
		}
	}
	return nil
}

// PlanPortVal implements ca.PlanHost: the pending operation's current
// item on a source port, or the value the inbound link currently offers
// at it (the head, shifted past any pops deferred by a fused burst).
func (e *Engine) PlanPortVal(p ca.PortID) any {
	if o := e.pend[p]; o != nil && o.send {
		return o.vals[o.cur]
	}
	if end := e.endAt(p); end != nil && end.emit != nil {
		return end.emit.peek()
	}
	return nil
}

// PlanDeliver implements ca.PlanHost: hand a fired value to the pending
// receive's current batch slot on a sink port, and stage it for any
// outbound links accepting at the port (pushed by fireLinks once the
// step commits).
func (e *Engine) PlanDeliver(p ca.PortID, v any) {
	if o := e.pend[p]; o != nil && !o.send {
		o.vals[o.cur] = v
	}
	if end := e.endAt(p); end != nil && len(end.accept) > 0 {
		end.push = v
	}
}

// Send registers a send operation on port p and blocks until a transition
// involving p fires (completing the operation) or the connector closes.
func (e *Engine) Send(p ca.PortID, v any) error {
	_, _, err := e.do(p, true, nil, v)
	return err
}

// Recv registers a receive operation on port p and blocks until a value is
// delivered or the connector closes.
func (e *Engine) Recv(p ca.PortID) (any, error) {
	_, v, err := e.do(p, false, nil, nil)
	return v, err
}

// SendBatch registers one operation carrying all of vs on port p and
// blocks until every item has been accepted by a fired transition (or
// the connector closes/breaks). The batch is an ordered sequence of
// independent items, not an atomic group: items are accepted one
// transition firing at a time, exactly as len(vs) consecutive Send calls
// would be, but under a single engine-lock registration and at most one
// completion handshake. Returns how many items were accepted (always
// len(vs) on nil error). The engine reads vs in place; the caller must
// not mutate it until SendBatch returns. An empty batch is a no-op.
func (e *Engine) SendBatch(p ca.PortID, vs []any) (int, error) {
	if len(vs) == 0 {
		return 0, nil
	}
	n, _, err := e.do(p, true, vs, nil)
	return n, err
}

// RecvBatch registers one operation that fills buf and blocks until
// len(buf) values have been delivered (or the connector closes/breaks).
// Returns how many leading entries of buf hold delivered values: len(buf)
// on nil error, possibly fewer when the error interrupted a partially
// moved batch. The ordering guarantee matches len(buf) consecutive Recv
// calls. An empty buffer is a no-op.
func (e *Engine) RecvBatch(p ca.PortID, buf []any) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	n, _, err := e.do(p, false, buf, nil)
	return n, err
}

// do runs one operation on port p — a batch over vals, or the scalar v
// when vals is nil — and returns the number of items moved and the
// scalar slot (the value a scalar Recv received). It parks only if
// register could not finish the operation itself.
func (e *Engine) do(p ca.PortID, send bool, vals []any, v any) (int, any, error) {
	o, n, out, err := e.register(p, send, vals, v)
	if o == nil {
		return n, out, err
	}
	<-o.done
	n, out, err = o.cur, o.inline[0], o.err
	o.clear()
	e.opPool.Put(o)
	return n, out, err
}

// getOp returns a pooled op for an operation that has to park.
func (e *Engine) getOp() *op {
	if x := e.opPool.Get(); x != nil {
		return x.(*op)
	}
	return &op{done: make(chan struct{}, 1)}
}

// clear drops the value slice reference (it may alias caller memory) and
// the inline slot, so neither the scratch slot nor a pooled op pins user
// payloads between operations.
func (o *op) clear() {
	o.vals, o.cur, o.err = nil, 0, nil
	o.inline[0] = nil
}

// admit reports why an operation may not pend on port p right now, nil
// if it may. Called with mu held.
func (e *Engine) admit(p ca.PortID, send bool) error {
	switch {
	case e.closed:
		return ErrClosed
	case e.broken != nil:
		return e.broken
	case int(p) >= len(e.pend):
		return fmt.Errorf("engine: unknown port %d", p)
	case send && e.dirs[p] != ca.DirSource:
		return fmt.Errorf("engine: send on non-source port %q", e.u.Name(p))
	case !send && e.dirs[p] != ca.DirSink:
		return fmt.Errorf("engine: recv on non-sink port %q", e.u.Name(p))
	case e.pend[p] != nil:
		return ErrPortBusy
	}
	return nil
}

// register pends the operation in the scratch slot and runs the fire
// loop, or an endpoint region's node pass. If that finished the operation
// — its last item fired, or a break failed it — the result (n, out, err)
// is read back from the slot, still under the lock: no channel, no pooled
// op, nothing another goroutine could observe. Otherwise the operation,
// with whatever part of its batch already moved, migrates to a pooled op
// that takes the slot's place in pend; that op is returned and the caller
// parks on its channel. Either way the slot is cleared before unlocking.
// A region engine then settles the cross-region wake-ups the fires
// produced (regionWakes) before register returns.
func (e *Engine) register(p ca.PortID, send bool, vals []any, v any) (parked *op, n int, out any, err error) {
	e.mu.Lock()
	if err := e.admit(p, send); err != nil {
		e.mu.Unlock()
		return nil, 0, nil, err
	}
	o := &e.scratch
	o.send = send
	scalar := vals == nil
	if scalar {
		o.inline[0] = v
		vals = o.inline[:1]
	}
	o.vals = vals
	e.pend[p] = o
	e.pendMask.Set(p)
	e.registered.Add(1)
	if e.endpoint {
		e.nodePass()
	} else {
		e.fireLoop(p)
	}
	e.flushSignals()
	if e.pend[p] == o {
		parked = e.getOp()
		parked.send, parked.vals, parked.cur = send, vals, o.cur
		if scalar {
			parked.inline = o.inline
			parked.vals = parked.inline[:1]
		}
		e.pend[p] = parked
	} else {
		n, out, err = o.cur, o.inline[0], o.err
	}
	o.clear()
	if e.group != nil {
		e.regionWakes(parked == nil)
	} else {
		e.mu.Unlock()
	}
	return parked, n, out, err
}

// regionWakes is register's tail on a region engine, called with e.mu
// held; it releases the lock. Without a runtime the operation's goroutine
// walks the regions its fires woke, as a pass of a neighbor would. With
// one, it feeds the group completion counter the livelock guard measures
// throughput by; then an operation that finished walks the woken regions
// itself (work first: the task goes on running what it just made ready),
// while one about to park posts them to the pool, still under the lock
// (safe — wake never takes an engine lock). A parking task helping too
// was measured to slow batch streaming.
func (e *Engine) regionWakes(finished bool) {
	if e.sched != nil {
		e.noteCompletion()
		if !finished {
			e.flushWakes(nil)
			e.mu.Unlock()
			return
		}
	}
	e.walk()
}

// tryEnable appends plan i to the candidate buffer if its sync set is
// covered by pending operations and its guards hold. Returns false on a
// guard evaluation error (the engine is broken). Must be called with mu
// held.
func (e *Engine) tryEnable(ex *expanded, i int32) bool {
	pl := ex.plans[i]
	// Enabled iff every *boundary* port in the sync set has a pending
	// operation and every link endpoint's queue condition holds; internal
	// vertices need neither.
	if !pl.Sync.MaskedSubsetOf(e.boundary, e.pendMask) {
		return true
	}
	if e.linkGate != nil && !pl.Sync.MaskedSubsetOf(e.linkGate, e.linkOK) {
		return true
	}
	e.guardEvals.Add(1)
	ok, err := pl.CheckGuards(e.cells, e)
	if err != nil {
		e.resetEnabled(ex)
		e.break_(err)
		return false
	}
	if ok {
		e.enabledBuf = append(e.enabledBuf, i)
	}
	return true
}

// resetEnabled releases the guard-phase scratch of every candidate that
// passed CheckGuards this round, so plans cached with their expansion do
// not pin user payloads (CheckGuards resets failing candidates itself).
func (e *Engine) resetEnabled(ex *expanded) {
	for _, ei := range e.enabledBuf {
		ex.plans[ei].Reset()
	}
}

// pumpTrigger is the fireLoop sentinel for pump wake-ups: no fresh
// operation, so the indexed first iteration is skipped in favor of a
// full scan (any link gate may have changed).
const pumpTrigger ca.PortID = -1

// fireLoop fires enabled transitions until quiescence. Called with mu held
// from register, with the port whose fresh operation woke the engine, or
// from the pump with pumpTrigger.
//
// The first iteration dispatches through the expanded state's port index:
// when the loop last reached quiescence nothing was enabled, and a new
// operation on p can only enable transitions whose sync set contains p
// (cells and other pending operations are unchanged, and guards are pure —
// the documented contract of compile.Funcs) — plus τ transitions, which
// are included for robustness. After a fire the composite state
// and cells have changed, so subsequent iterations scan the full state.
func (e *Engine) fireLoop(trigger ca.PortID) {
	e.fireCompleted, e.fireLinkActive = false, false
	if e.broken != nil {
		return
	}
	indexed := trigger != pumpTrigger
	if !indexed && e.linkGate != nil {
		// A drain visit: pick up the neighbor queue activity that
		// prompted it. Register-path calls skip this — neighbor changes
		// always arrive with their own drain visit, and gates only ever
		// turn on asynchronously, so a not-yet-refreshed gate is at worst
		// a missed enable the pending visit repairs.
		e.refreshLinks()
	}
	tau := 0
	// from/via name the plan fired last, whose successor link is filled in
	// when its target had to be looked up.
	var from *expanded
	var via int32
	for {
		ex := e.cur
		if ex == nil {
			ex = e.expandState(e.state)
			e.cur = ex
			// The first-visit table is overwritten by the next expansion:
			// nothing links to it or from it.
			if from != nil && from != e.once && ex != e.once {
				from.succ[via] = ex
			}
		}
		e.enabledBuf = e.enabledBuf[:0]
		if indexed {
			indexed = false
			if len(ex.portOff) == 0 {
				e.indexPorts(ex) // a first visit, indexed on demand
			}
			// Merge the trigger's plan list with the τ list in ascending
			// plan order, so the RNG sees candidates exactly as a full
			// scan would.
			byp := ex.plansAt(trigger)
			taus := ex.taus
			i, j := 0, 0
			for i < len(byp) || j < len(taus) {
				var next int32
				switch {
				case j >= len(taus) || (i < len(byp) && byp[i] < taus[j]):
					next = byp[i]
					i++
				default:
					next = taus[j]
					j++
				}
				if !e.tryEnable(ex, next) {
					return
				}
			}
		} else {
			for i := range ex.plans {
				if !e.tryEnable(ex, int32(i)) {
					return
				}
			}
		}
		if len(e.enabledBuf) == 0 {
			return
		}
		pick := 0
		if len(e.enabledBuf) > 1 {
			pick = e.rng.Intn(len(e.enabledBuf))
		}
		ti := e.enabledBuf[pick]
		pl := ex.plans[ti]
		if err := pl.Execute(e.cells, e); err != nil {
			e.resetEnabled(ex)
			e.break_(err)
			return
		}
		linkActive := false
		if e.linkGate != nil {
			// Pop/push the link endpoints in the sync set before
			// completing operations: popped values feed pending receives.
			linkActive = e.fireLinks(pl, false)
		}
		// Count the step before completing operations: a task woken by
		// its completion must not read Steps() short of its items. Hops
		// a popped spliced link stands for were counted by fireLinks.
		step := e.steps.Add(1)
		var traced []TracePort
		var tracedp *[]TracePort
		if e.tracer != nil {
			tracedp = &traced // stays on the stack; only appends allocate
		}
		// Advance every pending operation in the sync set one item (sink
		// values were delivered by the plan via PlanDeliver) and complete
		// the exhausted ones.
		completedAny := e.advanceOps(pl, tracedp)
		// Fused flow fast path: a pure-flow plan left state and cells
		// untouched, so while every gate in its sync set still has items
		// (batch cursors, link queues) re-firing it needs no fresh
		// dispatch scan and no guard evaluation. Move the whole remaining
		// budget in one burst, each item counting as one global step.
		// Tracing stays on the scanned path so every step is reported
		// individually.
		if ex.flow[ti] && e.tracer == nil {
			if !e.fireFused(ex, pl) {
				return
			}
		}
		// Enter the target state: by one pointer load when this plan has
		// been fired from this state before, by key lookup at the top of
		// the loop otherwise.
		for _, d := range ex.deltas[ti] {
			e.state[d.Aut] = d.Target
		}
		from, via = ex, ti
		e.cur = ex.succ[ti]
		// Release the data values the enabled candidates computed during
		// guard evaluation (and the fired plan's outputs): cached plans
		// must not pin user payloads between fires.
		e.resetEnabled(ex)
		if e.tracer != nil {
			e.tracer(TraceEvent{Step: step, Ports: traced, Internal: !completedAny})
		}
		e.fireCompleted = e.fireCompleted || completedAny
		e.fireLinkActive = e.fireLinkActive || linkActive
		if completedAny || linkActive {
			tau = 0
		} else {
			tau++
			if tau > e.opts.MaxTauBurst {
				e.break_(ErrLivelock)
				return
			}
		}
	}
}

// advanceOps moves every pending operation in the fired plan's sync set
// one item forward: the plan's Execute consumed vals[cur] of each source
// and delivered into vals[cur] of each sink. Operations whose batch is
// exhausted complete (cleared and signaled); the rest stay pending with
// their cursor advanced. Reports whether any operation progressed —
// item-level progress, which resets the τ-livelock budget even when a
// large batch keeps its op pending. Appends trace records to *traced
// when non-nil. Called with mu held.
func (e *Engine) advanceOps(pl *ca.Plan, traced *[]TracePort) bool {
	progressed := false
	for wi, w := range pl.Sync {
		for w != 0 {
			p := ca.PortID(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			o := e.pend[p]
			if o == nil {
				continue // internal vertex or link endpoint; no operation
			}
			if traced != nil {
				*traced = append(*traced, TracePort{Name: e.u.Name(p), Dir: e.dirs[p], Val: o.vals[o.cur]})
			}
			o.cur++
			progressed = true
			if o.cur == len(o.vals) {
				e.complete(p, o, nil)
			}
		}
	}
	return progressed
}

// complete takes op o off port p with the given outcome and wakes its
// parked owner. The scratch slot has no owner to wake: the goroutine that
// registered it holds mu right now and reads the outcome when its fire
// loop returns. Called with mu held.
func (e *Engine) complete(p ca.PortID, o *op, err error) {
	o.err = err
	e.pend[p] = nil
	e.pendMask.Clear(p)
	if o.done != nil {
		o.done <- struct{}{}
	}
}

// fuseBudget returns how many additional consecutive firings of flow
// plan pl are guaranteed enabled right now: the minimum of the remaining
// batch items across the pending operations on its boundary ports and
// the item/space counts of its link endpoints. 0 when the sync set has
// no gated port at all — a pure τ flow must stay on the scanned path,
// where the livelock guard can see it spin. Called with mu held, after
// the triggering fire already advanced its cursors and queues.
func (e *Engine) fuseBudget(pl *ca.Plan) int {
	k, gated := math.MaxInt, false
	for wi, w := range pl.Sync {
		for ; w != 0 && k > 0; w &= w - 1 {
			var g bool
			k, g = e.gateBudget(ca.PortID(wi*64+bits.TrailingZeros64(w)), k)
			gated = gated || g
		}
	}
	if !gated {
		return 0
	}
	return k
}

// gateBudget lowers k to what port p still lets a flow plan move — the
// remaining items of the pending operation on a boundary port (0 without
// one: the batch is exhausted and the transition disabled), the items of
// the emitting link, the free slots of the accepting ones — and reports
// whether p gates at all. Called with mu held.
func (e *Engine) gateBudget(p ca.PortID, k int) (int, bool) {
	gated := false
	if e.boundary.Has(p) {
		o := e.pend[p]
		if o == nil {
			return 0, true
		}
		k, gated = min(k, o.remaining()), true
	}
	if end := e.endAt(p); end != nil {
		gated = true
		if end.emit != nil {
			k = min(k, end.emit.avail())
		}
		for _, l := range end.accept {
			k = min(k, l.free())
		}
	}
	return max(k, 0), gated
}

// fireFused re-fires a just-fired pure-flow plan as many times as its
// batch budget allows, fusing up to k item movements into the one
// dispatch decision fireLoop already made: guards need no re-evaluation
// (a flow plan has none), the composite state is unchanged by
// construction, and link endpoints defer their queue publication so the
// whole burst costs one release store per endpoint (commitLinks). Every
// fused item counts as one global step, keeping Steps parity with the
// scalar run; the burst counts them before it completes any operation.
// Returns false when an Execute error broke the engine. Called with mu
// held.
func (e *Engine) fireFused(ex *expanded, pl *ca.Plan) bool {
	k := e.fuseBudget(pl)
	if k == 0 {
		return true
	}
	e.steps.Add(int64(k))
	for j := 0; j < k; j++ {
		if err := pl.Execute(e.cells, e); err != nil {
			e.steps.Add(int64(j - k)) // the items that did not move
			if e.linkGate != nil {
				e.commitLinks(pl)
			}
			e.resetEnabled(ex)
			e.break_(err)
			return false
		}
		if e.linkGate != nil {
			e.fireLinks(pl, true)
		}
		e.advanceOps(pl, nil)
	}
	if e.linkGate != nil {
		e.commitLinks(pl)
	}
	return true
}

// break_ marks the engine broken and fails all pending operations.
// Called with mu held. A broken region breaks its sibling regions
// asynchronously (their locks cannot be taken while holding this one).
func (e *Engine) break_(err error) {
	e.broken = err
	for p, o := range e.pend {
		if o != nil {
			e.complete(ca.PortID(p), o, err)
		}
	}
	if e.group != nil {
		// The goroutine is joined by the group's WaitGroup: instance
		// recycling must not reset an engine a stale break is still
		// about to touch.
		e.group.breakWG.Add(1)
		g := e.group
		go func() {
			defer g.breakWG.Done()
			g.breakOthers(e, err)
			if g.onBreak != nil {
				// Transport hook (tcp.go): tell the peer nodes so their
				// regions break too, not just the local siblings.
				g.onBreak(err)
			}
		}()
	}
}

// Close shuts the connector down, failing all pending and future
// operations with ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	for p, o := range e.pend {
		if o != nil {
			e.complete(ca.PortID(p), o, ErrClosed)
		}
	}
	return nil
}

// Reset returns a closed (or broken) engine to its initial state so the
// instance can be recycled instead of reallocated: automaton states,
// cells, counters, and the choice stream are restored exactly as after
// construction, while warm structures — the expanded-state cache with
// its successor links, the expander's cluster memo and compiled plans, the
// op pool, the candidate and nudge buffers — are retained. A recycled
// engine therefore replays the same per-seed choice sequence as a
// fresh one. Only Expansions may differ: a state an earlier life kept
// costs nothing, but one the earlier lives visited only once is expanded
// again, and kept if the cache still admits states, since this is its
// second visit. Fails if the engine is still open. Link queues are the
// coordinator's to reset (Multi.Reset); a plain engine has none.
func (e *Engine) Reset() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed && e.broken == nil {
		return errors.New("engine: reset of an open engine")
	}
	for i, a := range e.auts {
		e.state[i] = a.Initial
	}
	copy(e.cells, e.initCells)
	e.cur = nil
	e.closed = false
	e.broken = nil
	e.rng.reseed(e.opts.Seed)
	e.enabledBuf = e.enabledBuf[:0]
	e.outNudges = e.outNudges[:0]
	e.outSignals = e.outSignals[:0]
	e.fireCompleted, e.fireLinkActive = false, false
	e.linkBurst, e.lastSeen = 0, 0
	e.steps.Store(0)
	e.expansions.Store(0)
	e.guardEvals.Store(0)
	e.registered.Store(0)
	return nil
}

// Steps returns the number of global execution steps fired so far — the
// metric of the paper's connector benchmarks (§V-B).
func (e *Engine) Steps() int64 { return e.steps.Load() }

// Expansions returns how many times a composite state has been expanded,
// a measure of composition work done at run time. Every run of the
// expander counts: a state visited once costs 1 and a state kept on its
// second visit 2; a state a full bounded cache could not admit costs 1 on
// every visit.
func (e *Engine) Expansions() int64 { return e.expansions.Load() }

// GuardEvals returns how many candidate transitions had their guards
// evaluated — the dispatch work of the engine. With port-indexed dispatch
// this is proportional to affected transitions, not state out-degree.
func (e *Engine) GuardEvals() int64 { return e.guardEvals.Load() }

// OpsRegistered returns how many port operations have ever been accepted
// for pending (a monotonic count; completed operations stay counted).
// Deterministic test drivers use it to sequence op arrival order across
// goroutines without sleeping.
func (e *Engine) OpsRegistered() int64 { return e.registered.Load() }

// PlansCompiled returns how many transition plans have been compiled —
// one per distinct cluster (per joint transition of every expanded state
// under ca.ExpandFull). Reset keeps it, like the plans themselves.
func (e *Engine) PlansCompiled() int64 { return e.plansCompiled.Load() }

// CachedStates returns the number of composite states kept: the states
// visited at least twice, up to the cache bound (with AOT composition:
// every reachable state).
func (e *Engine) CachedStates() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.kept
}

// Universe returns the instance universe (for diagnostics).
func (e *Engine) Universe() *ca.Universe { return e.u }
