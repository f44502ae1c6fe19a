package engine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ca"
)

// Multi is the region-partitioned coordinator (NewMultiRegions,
// region.go): the router over independently locked region engines. The
// plan unions constituents sharing a port, so connected components of
// the shared-port graph never share an engine (the optimization of
// §V-C(3), after Jongmans, Santini & Arbab, "Partially distributed
// coordination with Reo and constraint automata"), and then cuts at
// buffers: a full buffer never requires consensus across it, so even a
// single component decomposes into synchronous regions joined by
// bounded links, each firing concurrently. Per-state expansion work is
// exponential only in the largest region, not in the whole connector.
type Multi struct {
	engines []*Engine
	owner   []int // port -> engine index (-1 if unknown)

	// plan and links describe the cut (diagnostics). engines and links
	// keep plan-aligned indices: entries hosted by another process are
	// nil, and so are the relay regions and links of a spliced relay
	// chain, whose one link folds lists.
	plan  *ca.RegionPlan
	links []*link
	folds []fold
	group *regionGroup
	// transport is the placement's link transport (nil for a fully
	// local coordinator); closed by Close after the engines.
	transport Transport
	// sched is the worker pool regions fire on (nil in synchronous
	// mode): a dedicated pool owned by this coordinator, or a shared
	// Runtime multiplexing many coordinators (see runtime.go).
	sched *Runtime

	// closeMu serializes Close and Reset; closed makes Close idempotent
	// (and safe to race), which instance pooling relies on.
	closeMu sync.Mutex
	closed  bool
}

// Partitions returns the number of partitions planned, with or without
// an engine in this process (see Infos).
func (m *Multi) Partitions() int { return len(m.engines) }

// Workers returns the size of the worker pool region engines fire on (0
// when cross-region nudges are drained synchronously on the callers'
// goroutines).
func (m *Multi) Workers() int {
	if m.sched == nil {
		return 0
	}
	return m.sched.Workers()
}

// Runtime returns the worker pool the coordinator's regions fire on
// (nil in synchronous mode).
func (m *Multi) Runtime() *Runtime { return m.sched }

// Plan returns the region plan behind the coordinator.
func (m *Multi) Plan() *ca.RegionPlan { return m.plan }

// PartitionInfo is a per-engine statistics snapshot.
type PartitionInfo struct {
	// Constituents counts the automata executing in the partition,
	// including synthesized node automata.
	Constituents int
	// Links counts the link endpoints attached to the partition.
	Links int
	// Worker is the partition's home worker — the one whose inbox its
	// wake-ups from outside the pool are queued on (any worker may run
	// it) — or -1 when the coordinator runs synchronously.
	Worker int
	// Endpoint marks a region that moves items straight between a task's
	// operation and its one link, with no dispatch (see initLinks): its
	// Expansions are 0, and it counts one guard evaluation per run of
	// items moved.
	Endpoint                      bool
	Steps, Expansions, GuardEvals int64
}

// live returns the partition engines hosted in this process (every
// engine for an unplaced coordinator), without the relay regions spliced
// into a link.
func (m *Multi) live() []*Engine {
	if m.group != nil {
		return m.group.engines
	}
	return m.engines
}

// Infos returns one statistics snapshot per partition, in plan order. A
// region without an engine here — hosted by another process, or a relay
// spliced into a link, whose steps its chain's consuming region counts —
// reports an empty entry with Worker -1. An endpoint region reports its
// one constituent (the synthesized node), its one link and Endpoint set.
func (m *Multi) Infos() []PartitionInfo {
	out := make([]PartitionInfo, len(m.engines))
	for i, e := range m.engines {
		if e == nil {
			out[i] = PartitionInfo{Worker: -1}
			continue
		}
		worker := -1
		if m.sched != nil {
			worker = int(e.homeWorker)
		}
		out[i] = PartitionInfo{
			Constituents: len(e.auts),
			Links:        e.linkCount(),
			Worker:       worker,
			Endpoint:     e.endpoint,
			Steps:        e.Steps(),
			Expansions:   e.Expansions(),
			GuardEvals:   e.GuardEvals(),
		}
	}
	return out
}

func (m *Multi) engineFor(p ca.PortID) (*Engine, error) {
	if int(p) >= len(m.owner) || m.owner[p] < 0 {
		return nil, fmt.Errorf("engine: port %d not owned by any partition", p)
	}
	e := m.engines[m.owner[p]]
	if e == nil {
		return nil, fmt.Errorf("engine: port %d has no engine here: region %d is a remote region or a relay spliced into a link", p, m.owner[p])
	}
	return e, nil
}

// Send routes to the owning partition.
func (m *Multi) Send(p ca.PortID, v any) error {
	e, err := m.engineFor(p)
	if err != nil {
		return err
	}
	return e.Send(p, v)
}

// Recv routes to the owning partition.
func (m *Multi) Recv(p ca.PortID) (any, error) {
	e, err := m.engineFor(p)
	if err != nil {
		return nil, err
	}
	return e.Recv(p)
}

// SendBatch routes to the owning partition: a batch involves exactly one
// port, so the whole batch amortizes against that partition's lock.
func (m *Multi) SendBatch(p ca.PortID, vs []any) (int, error) {
	e, err := m.engineFor(p)
	if err != nil {
		return 0, err
	}
	return e.SendBatch(p, vs)
}

// RecvBatch routes to the owning partition.
func (m *Multi) RecvBatch(p ca.PortID, buf []any) (int, error) {
	e, err := m.engineFor(p)
	if err != nil {
		return 0, err
	}
	return e.RecvBatch(p, buf)
}

// Close closes all partitions, then quiesces the worker pool (if any):
// a dedicated pool is shut down and its workers joined; a shared
// Runtime has the regions detached from it instead, leaving the pool
// running for its other instances. Pending operations in every region
// fail with ErrClosed first, so no in-flight fire pass can complete new
// work after Close returns. Idempotent and safe to call concurrently:
// every call returns only after the coordinator is fully closed.
func (m *Multi) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, e := range m.live() {
		e.Close()
	}
	if m.sched != nil {
		if m.sched.dedicated {
			m.sched.Close()
		} else {
			m.sched.detach(m.live())
		}
	}
	if m.transport != nil {
		// After the engines: the writers send what is left, and the
		// peers get the Close frame last.
		m.transport.Close()
	}
	return nil
}

// Reset returns a closed coordinator to its as-constructed state so the
// instance can be recycled instead of rebuilt: engines are reset (see
// Engine.Reset), link queues emptied and re-seeded from the region
// plan (a spliced link from its chain), and the regions re-settled —
// re-attached to the shared Runtime, or settled synchronously. Fails if the coordinator is still open, or
// if it owns a dedicated worker pool (that pool was torn down by Close;
// use a shared Runtime for instances meant to be recycled).
func (m *Multi) Reset() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if !m.closed {
		return errors.New("engine: reset of an open coordinator")
	}
	if m.sched != nil && m.sched.dedicated {
		return errors.New("engine: reset of a dedicated-runtime coordinator")
	}
	if m.transport != nil {
		// A placed coordinator's transport tore its connections down at
		// Close; the peers' halves of the links are gone with them.
		return errors.New("engine: reset of a remote-placed coordinator")
	}
	if g := m.group; g != nil {
		// Join stale break-propagation goroutines and zero the τ-budget
		// completion counter before touching any engine.
		g.breakWG.Wait()
		g.completions.Store(0)
	}
	live := m.live()
	for _, e := range live {
		if err := e.Reset(); err != nil {
			return err
		}
	}
	for i, l := range m.links {
		if l != nil {
			l.reset(m.plan.Links[i])
		}
	}
	for _, f := range m.folds {
		f.seed(m.plan.Links)
	}
	for _, e := range live {
		e.mu.Lock()
		if e.linkGate != nil {
			e.refreshLinks()
		}
		e.mu.Unlock()
	}
	m.closed = false
	if m.sched != nil {
		m.sched.attach(live)
	} else {
		for _, e := range live {
			e.settle()
		}
	}
	return nil
}

// Steps sums global steps across the locally hosted partitions.
func (m *Multi) Steps() int64 {
	var n int64
	for _, e := range m.live() {
		n += e.Steps()
	}
	return n
}

// Expansions sums composite-state expansions across the locally hosted
// partitions.
func (m *Multi) Expansions() int64 {
	var n int64
	for _, e := range m.live() {
		n += e.Expansions()
	}
	return n
}

// PlansCompiled sums compiled-plan counts across the locally hosted
// partitions.
func (m *Multi) PlansCompiled() int64 {
	var n int64
	for _, e := range m.live() {
		n += e.PlansCompiled()
	}
	return n
}

// GuardEvals sums guard-evaluation counts across the locally hosted
// partitions.
func (m *Multi) GuardEvals() int64 {
	var n int64
	for _, e := range m.live() {
		n += e.GuardEvals()
	}
	return n
}

// OpsRegistered sums accepted-operation counts across the locally
// hosted partitions.
func (m *Multi) OpsRegistered() int64 {
	var n int64
	for _, e := range m.live() {
		n += e.OpsRegistered()
	}
	return n
}
