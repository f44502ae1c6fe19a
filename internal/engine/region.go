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

// This file implements asynchronous-region execution: the run-time half
// of ca.PlanRegions. A region is an ordinary Engine extended with *link
// endpoints* — ports backed by bounded queues that stand in for the
// buffer constituents cut out of the region graph. A link endpoint is
// always ready to accept while its queue is non-full and to offer while
// non-empty, so a region decides its fires with purely local information
// and never takes a neighbor's lock while holding its own. After a fire
// changes link state, the firing goroutine re-fires the affected
// neighbors one at a time (walk), so cross-region progress needs no
// background goroutines.

// link is the bounded SPSC queue backing one cut buffer constituent.
// The source region pushes (by firing the buffer's accept port), the
// target region pops (by firing its emit port). All pushes happen under
// the source engine's lock and all pops under the target engine's, so
// each index has exactly one writer at a time and the queue needs no
// lock of its own: buf[t] is written before the tail store releases it,
// and any consumer that loaded the new tail acquires that write. The
// two regions therefore never contend on a mutex, no matter how hot the
// link runs.
type link struct {
	buf []any
	// head is advanced only by the consumer, tail only by the producer.
	// pendPop/pendPush count batch items consumed/produced during a fused
	// burst but not yet published: the burst defers the counter store so
	// k items cost one release store per side (commitPops/commitPushes)
	// instead of k — the cross-core handoff is what a hot link pays for.
	// Each pend counter lives with its side's counter and is only ever
	// touched under that side's engine lock (and is zero whenever that
	// lock is released). Padding keeps the two sides on separate cache
	// lines so the regions do not false-share.
	head     atomic.Int64
	pendPop  int64
	_        [48]byte
	tail     atomic.Int64
	pendPush int64
	_        [48]byte

	// src/dst are the producer/consumer region engines. Either may be
	// nil: the link is then a *half link* of a distributed cut (see
	// transport.go) whose far side lives in another process, serviced by
	// a TCP peer's outbound path instead of a sibling engine.
	src, dst         *Engine
	srcPort, dstPort ca.PortID

	// signal, when non-nil, is the peer servicing a half link: raised
	// (non-blocking) after the local engine publishes commits its
	// outbound path must send — fresh pushes on a producer-local half,
	// fresh pops on a consumer-local half.
	signal *tcpPeer

	// hops is non-zero on a link spliced from a relay chain (spliceChain):
	// the number of relay regions folded into it. Each item the consumer
	// pops stands for that many relay steps, which the consumer counts
	// (hopsOf), so the counters read as the unspliced chain's. seeds holds,
	// for the chain's initially full buffers in delivery order, the relay
	// steps each would still have made; seedNext is how many of them the
	// consumer has popped. Consumer side only, besides construction and
	// Reset.
	hops     int64
	seeds    []int64
	seedNext int
}

func newLink(capacity int) *link {
	if capacity < 1 {
		capacity = 1
	}
	return &link{buf: make([]any, capacity)}
}

// push appends v and publishes it. Producer side only (under the source
// engine's lock).
func (l *link) push(v any) {
	l.pushDefer(v)
	l.commitPushes()
}

// pushDefer stages v in the next free slot without publishing it;
// commitPushes publishes the whole staged run with one tail store.
// Producer side only.
func (l *link) pushDefer(v any) {
	t := l.tail.Load() + l.pendPush
	if t-l.head.Load() >= int64(len(l.buf)) {
		panic("engine: push on full region link (gate invariant violated)")
	}
	l.buf[t%int64(len(l.buf))] = v
	l.pendPush++
}

// commitPushes publishes every deferred push. The slot writes above
// happen-before the single release store, exactly as with per-item
// pushes. Producer side only.
func (l *link) commitPushes() {
	if l.pendPush == 0 {
		return
	}
	l.tail.Store(l.tail.Load() + l.pendPush)
	l.pendPush = 0
}

// pop removes, publishes and returns the head value. Consumer side only
// (under the target engine's lock).
func (l *link) pop() any {
	v := l.popDefer()
	l.commitPops()
	return v
}

// popDefer consumes the current head value without publishing the slot
// back to the producer; commitPops publishes the whole consumed run with
// one head store. Consumer side only.
func (l *link) popDefer() any {
	h := l.head.Load() + l.pendPop
	if l.tail.Load() == h {
		panic("engine: pop on empty region link (gate invariant violated)")
	}
	v := l.buf[h%int64(len(l.buf))]
	l.pendPop++
	return v
}

// commitPops clears the consumed slots (so the queue does not pin
// payloads) and frees them to the producer with one head store.
// Consumer side only.
func (l *link) commitPops() {
	if l.pendPop == 0 {
		return
	}
	h := l.head.Load()
	for i := int64(0); i < l.pendPop; i++ {
		l.buf[(h+i)%int64(len(l.buf))] = nil
	}
	l.head.Store(h + l.pendPop)
	l.pendPop = 0
}

// reset empties the queue and re-seeds it from the plan's link spec,
// returning it to its as-constructed state for instance recycling. Both
// sides must be quiescent: the owning coordinator is closed and its
// engines detached from any runtime, so the plain stores cannot race
// (the next attach publishes them, as construction does).
func (l *link) reset(spec ca.RegionLink) {
	for i := range l.buf {
		l.buf[i] = nil
	}
	l.pendPop, l.pendPush = 0, 0
	l.head.Store(0)
	if spec.Full {
		l.buf[0] = spec.Initial
		l.tail.Store(1)
	} else {
		l.tail.Store(0)
	}
}

// hopsOf returns the relay steps the next n pops of a spliced link stand
// for: hops each, but a seed only the hops the chain still had ahead of
// it. Consumer side only.
func (l *link) hopsOf(n int64) int64 {
	c := int64(0)
	for ; n > 0 && l.seedNext < len(l.seeds); n-- {
		c += l.seeds[l.seedNext]
		l.seedNext++
	}
	return c + n*l.hops
}

// peek returns the value the link currently offers: the head shifted
// past any deferred pops. Consumer side only: the slot is stable until
// the consuming region itself commits, and the consumer observed
// non-empty (an acquiring tail load) when its gate bit was set.
func (l *link) peek() any {
	return l.buf[(l.head.Load()+l.pendPop)%int64(len(l.buf))]
}

// avail returns how many items the link still offers the consumer,
// counting deferred pops as gone. Consumer side only.
func (l *link) avail() int {
	return int(l.tail.Load() - l.head.Load() - l.pendPop)
}

// free returns how many items the link still accepts from the producer,
// counting deferred pushes as used. Producer side only; a stale head
// under-reports, which is at worst a shorter fused burst.
func (l *link) free() int {
	return len(l.buf) - int(l.tail.Load()+l.pendPush-l.head.Load())
}

// empty reports whether the queue offers no value. On the consumer side
// this is exact; elsewhere it may be stale-true, which is at worst a
// missed enable that the producer's wake-up repairs.
func (l *link) empty() bool {
	return l.tail.Load() == l.head.Load()+l.pendPop
}

// full reports whether the queue accepts no value. On the producer side
// this is exact; elsewhere it may be stale-true, repaired by the
// consumer's wake-up.
func (l *link) full() bool {
	return l.tail.Load()+l.pendPush-l.head.Load() == int64(len(l.buf))
}

// regionGroup ties the regions of one connector together for error
// propagation — a broken region breaks its siblings, since the
// connector as a whole can no longer honor its protocol — and for the
// τ-livelock budget: completions counts fire passes anywhere in the
// group that moved a boundary operation forward. Scoping the counter to
// the instance (rather than to the worker pool) keeps livelock
// detection sound on a shared runtime, where another instance's healthy
// throughput must not mask this one's closed relay cycle.
type regionGroup struct {
	engines     []*Engine
	completions atomic.Int64
	// breakWG joins the asynchronous break_ propagation goroutines, so
	// instance recycling cannot reset an engine a stale break is still
	// about to touch.
	breakWG sync.WaitGroup
	// breaking counts the propagation goroutines not yet finished: they
	// complete sibling operations with no step and no pass (Multi.Busy).
	breaking atomic.Int32
	// onBreak, when non-nil, is invoked (once per break_, from the
	// propagation goroutine) so a network transport can notify the peer
	// nodes of the failure. Set before Start returns, never mutated
	// after.
	onBreak func(error)
}

func (g *regionGroup) breakOthers(src *Engine, err error) {
	for _, e := range g.engines {
		if e != src {
			e.breakExternal(err)
		}
	}
}

// breakExternal marks the engine broken on behalf of a sibling region.
func (e *Engine) breakExternal(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.broken != nil {
		return
	}
	e.break_(err)
}

// linkEnd is the link endpoints at one port of a region.
type linkEnd struct {
	port ca.PortID
	// emit is the inbound link offering values at the port (the region
	// pops from it when the port fires). At most one — link-level merges
	// are excluded by the planner.
	emit *link
	// accept lists the outbound links consuming from the port. Several may
	// accept at one port: a replicated node pushes to all of them in the
	// same fire.
	accept []*link
	// push holds the value the firing plan computed for accept, between
	// its PlanDeliver and the fireLinkPort of the same fire.
	push any
}

// endAt returns port p's link endpoints, nil when it has none.
func (e *Engine) endAt(p ca.PortID) *linkEnd {
	if int(p) < len(e.linkAt) {
		if i := e.linkAt[p]; i != 0 {
			return &e.ends[i-1]
		}
	}
	return nil
}

// addEnd returns port p's link endpoints, adding the entry if needed.
// Construction only: it may move ends.
func (e *Engine) addEnd(p ca.PortID) *linkEnd {
	if e.linkAt == nil {
		e.linkAt = make([]int32, e.u.NumPorts())
	}
	if e.linkAt[p] == 0 {
		e.ends = append(e.ends, linkEnd{port: p})
		e.linkAt[p] = int32(len(e.ends))
	}
	return &e.ends[e.linkAt[p]-1]
}

// addAccept registers an outbound link at port p.
func (e *Engine) addAccept(p ca.PortID, l *link) {
	end := e.addEnd(p)
	end.accept = append(end.accept, l)
}

// addEmit registers the inbound link at port p.
func (e *Engine) addEmit(p ca.PortID, l *link) {
	end := e.addEnd(p)
	if end.emit != nil {
		panic("engine: two links emitting at one port")
	}
	end.emit = l
}

// initLinks finalizes link-endpoint bookkeeping. Must run after all
// addAccept/addEmit calls and before the engine expands any state (the
// compiled plans depend on which ports are link endpoints). nodeOnly
// reports that the region holds one synthesized node automaton and no
// constituent of its own. Such a region with one port entry is an
// endpoint if the port faces a task — a sending one with exactly one
// outbound link, a receiving one with exactly one inbound link — and that
// link's far side is a region of this process; it runs nodePass. Every
// other region, a relay left after splicing included, runs the fire loop.
func (e *Engine) initLinks(nodeOnly bool) {
	if len(e.ends) == 0 {
		return
	}
	e.linkGate = e.u.NewSet()
	e.linkOK = e.u.NewSet()
	for i := range e.ends {
		e.linkGate.Set(e.ends[i].port)
	}
	if end := &e.ends[0]; nodeOnly && len(e.ends) == 1 {
		switch e.dirOf(end.port) {
		case ca.DirSource:
			e.endpoint = end.emit == nil && len(end.accept) == 1 && end.accept[0].dst != nil
		case ca.DirSink:
			e.endpoint = end.emit != nil && len(end.accept) == 0 && end.emit.src != nil
		}
	}
	e.refreshLinks()
}

// refreshLinks recomputes every link gate bit. Called with mu held.
// Neighbor activity can only turn gates on (they never consume our
// readiness), so a stale bit is at worst a missed enable that the
// neighbor's nudge repairs.
func (e *Engine) refreshLinks() {
	for i := range e.ends {
		e.refreshEnd(&e.ends[i])
	}
}

func (e *Engine) refreshEnd(end *linkEnd) {
	ok := end.emit == nil || !end.emit.empty()
	for _, l := range end.accept {
		ok = ok && !l.full()
	}
	if ok {
		e.linkOK.Set(end.port)
	} else {
		e.linkOK.Clear(end.port)
	}
}

// fireLinks performs the link effects of a fired transition: pop every
// emitting endpoint in the sync set, push every accepting one, deliver
// popped values to pending receives, and nudge the neighbors whose gates
// changed. Called with mu held, after the plan executed and before
// pending operations are advanced. Reports whether any endpoint was
// touched (link progress resets the τ-livelock counter: a relay region
// completes no boundary operations but still makes global progress).
//
// With deferred set (the fused batch burst), pops and pushes are staged
// on the queues without publishing the head/tail counters and the gate
// bits are left alone; commitLinks publishes the whole burst with one
// store per endpoint and refreshes the gates. The burst's budget
// (fuseBudget) guarantees the staged run never over- or underflows a
// queue.
func (e *Engine) fireLinks(pl *ca.Plan, deferred bool) bool {
	active := false
	for wi := range pl.Sync {
		if wi >= len(e.linkGate) {
			break
		}
		for w := pl.Sync[wi] & e.linkGate[wi]; w != 0; w &= w - 1 {
			e.fireLinkPort(ca.PortID(wi*64+bits.TrailingZeros64(w)), deferred)
			active = true
		}
	}
	return active
}

// fireLinkPort is fireLinks at one fired port p of linkGate.
func (e *Engine) fireLinkPort(p ca.PortID, deferred bool) {
	end := e.endAt(p)
	// The value pushed is the one popped here, else the pending send's
	// current item, else what the plan delivered.
	v := end.push
	end.push = nil
	if l := end.emit; l != nil {
		if deferred {
			v = l.popDefer()
		} else {
			v = l.pop()
			if l.hops != 0 {
				e.countHops(l.hopsOf(1))
			}
		}
		if o := e.pend[p]; o != nil && !o.send {
			o.vals[o.cur] = v
		}
		e.noteLink(l.src, l)
	} else if o := e.pend[p]; o != nil && o.send {
		v = o.vals[o.cur]
	}
	for _, l := range end.accept {
		if deferred {
			l.pushDefer(v)
		} else {
			l.push(v)
		}
		e.noteLink(l.dst, l)
	}
	if !deferred {
		e.refreshEnd(end)
	}
}

// commitLinks publishes the deferred pops and pushes a fused burst
// staged on the fired plan's link endpoints — one release store per
// endpoint side, regardless of the burst length — and refreshes the
// affected gate bits. Called with mu held.
func (e *Engine) commitLinks(pl *ca.Plan) {
	for wi := range pl.Sync {
		if wi >= len(e.linkGate) {
			break
		}
		for w := pl.Sync[wi] & e.linkGate[wi]; w != 0; w &= w - 1 {
			e.commitLinkPort(ca.PortID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// commitLinkPort is commitLinks at one fired port p of linkGate.
func (e *Engine) commitLinkPort(p ca.PortID) {
	end := e.endAt(p)
	if l := end.emit; l != nil {
		if l.hops != 0 {
			e.countHops(l.hopsOf(l.pendPop))
		}
		l.commitPops()
	}
	for _, l := range end.accept {
		l.commitPushes()
	}
	e.refreshEnd(end)
}

// countHops counts the n relay steps a pop run on a spliced link stood
// for: n steps and n guard evaluations, one of each per spliced hop, each
// step traced as internal. The fire that popped counts its own step after
// these. Called with mu held.
func (e *Engine) countHops(n int64) {
	if n == 0 {
		return
	}
	if e.tracer != nil {
		for i := int64(1); i <= n; i++ {
			e.tracer(TraceEvent{Step: e.steps.Load() + i, Internal: true})
		}
	}
	e.steps.Add(n)
	e.guardEvals.Add(n)
}

// noteLink records that a fire moved an item on l, whose far side is
// region far: far must re-fire, or, when l is a half link (far nil), the
// peer that services it must be signaled — to send the data on a
// producer-local half, the ack on a consumer-local one. Called with mu
// held.
func (e *Engine) noteLink(far *Engine, l *link) {
	if far != nil {
		e.noteNudge(far)
	} else {
		e.noteSignal(l)
	}
}

// nodePass is the pass of an endpoint region (see initLinks). Its one
// transition moves an item between the pending operation and the one
// link — from a send into the outbound link, or from the inbound link
// into a receive — with no guard, no action and no other state, so it
// needs no dispatch: the pass moves as many items as the operation and
// the link allow, as one run that publishes the link once, as a fused
// burst does. It then nudges the neighbor and completes an exhausted
// operation. A node pass never expands a state or compiles a plan.
//
// It counts what the fire loop counts: a step per item, plus the relay
// hops an item popped from a spliced link stands for (countHops), and a
// guard evaluation per run, as for one fire and its fused burst. Traced,
// an item's hops come first, then the port's event. Called with mu held.
func (e *Engine) nodePass() {
	e.fireCompleted, e.fireLinkActive = false, false
	if e.broken != nil {
		return
	}
	end := &e.ends[0]
	p := end.port
	n, _ := e.gateBudget(p, math.MaxInt)
	if n == 0 {
		return // no operation pending, or the link has no item or no room
	}
	// in is the inbound link of a receiving endpoint, nil on a sending one,
	// whose one link is end.accept[0].
	o, in := e.pend[p], end.emit
	for range n {
		var v any
		if in != nil {
			v = in.popDefer()
			o.vals[o.cur] = v
		} else {
			v = o.vals[o.cur]
			end.accept[0].pushDefer(v)
		}
		o.cur++
		if e.tracer != nil {
			e.traceNode(in, v)
		}
	}
	if e.tracer == nil {
		if in != nil && in.hops != 0 {
			e.countHops(in.hopsOf(int64(n)))
		}
		e.steps.Add(int64(n))
	}
	e.guardEvals.Add(1)
	if in != nil {
		in.commitPops()
		e.noteNudge(in.src)
	} else {
		out := end.accept[0]
		out.commitPushes()
		e.noteNudge(out.dst)
	}
	e.fireCompleted, e.fireLinkActive = true, true
	if o.cur == len(o.vals) {
		e.complete(p, o, nil)
	}
}

// traceNode counts and traces the step of one item a node pass moved:
// first the hops it stands for if it came off a spliced link, then its
// own step, carrying the port's value. Called with mu held.
func (e *Engine) traceNode(in *link, v any) {
	if in != nil && in.hops != 0 {
		e.countHops(in.hopsOf(1))
	}
	p := e.ends[0].port
	e.tracer(TraceEvent{Step: e.steps.Add(1), Ports: []TracePort{{Name: e.u.Name(p), Dir: e.dirs[p], Val: v}}})
}

// pass runs one pass of e on behalf of a wake-up rather than a fresh
// operation — a neighbor's nudge, a transport read, the initial settle:
// the node pass on an endpoint region, the fire loop on any other. Called
// with mu held.
func (e *Engine) pass() {
	if e.endpoint {
		e.nodePass()
		return
	}
	e.fireLoop(pumpTrigger)
}

// noteNudge records that a fire changed link state visible to neighbor
// t, which must be re-fired once this engine's lock is released. Called
// with mu held; self-nudges are dropped (the running fireLoop rescans).
func (e *Engine) noteNudge(t *Engine) {
	if t == e {
		return
	}
	for _, x := range e.outNudges {
		if x == t {
			return
		}
	}
	e.outNudges = append(e.outNudges, t)
}

// walkQueue is the capacity of the queue a walk keeps on its goroutine's
// stack: a walk with a runtime holds at most that many regions and hands
// the pool any more, a synchronous one spills to the heap beyond it.
const walkQueue = 32

// regionQueue is the FIFO of one walk: the regions awaiting a pass, each
// at most once at a time. It is passed and returned by value, which is
// what keeps the array of a walk's queue on the walk's stack.
type regionQueue struct {
	q    []*Engine
	head int
}

func (w regionQueue) len() int { return len(w.q) - w.head }

func (w regionQueue) has(t *Engine) bool { return slices.Contains(w.q[w.head:], t) }

// push appends t, first moving the waiting entries to the front of the
// array when the array is full, so the queue grows with the regions
// waiting at once rather than with the passes walked.
func (w regionQueue) push(t *Engine) regionQueue {
	if len(w.q) == cap(w.q) && w.head > 0 {
		w.q, w.head = w.q[:copy(w.q, w.q[w.head:])], 0
	}
	w.q = append(w.q, t)
	return w
}

// walk runs the fire passes of the regions e's fires woke, and of those
// their passes wake in turn: one region at a time, in FIFO order, each
// under its own lock — never two engine locks at once, so lock order
// cannot deadlock. Called with e.mu held after a fire loop of e; it takes
// e's nudges onto its queue while still holding the lock, then releases
// it.
//
// Without a runtime it walks every region to quiescence: a token relaying
// across several regions is carried by the goroutine that set it in
// motion. A closed cycle of links with no task anywhere on it (a token
// spinning through pure relay regions) would keep the walk alive
// forever, and the per-engine τ-burst guard cannot see it because each
// region's own fire loop quiesces after one hop; the walk therefore
// carries its own budget, mirroring the single-engine ErrLivelock on τ
// bursts.
//
// With a runtime it is what a task does after an operation that finished
// in register, instead of waking a worker: it claims each woken region as
// a worker would (idle→running; rt.wake marks one some other goroutine
// holds dirty, and leaves a queued one be), reruns a region a wake-up
// dirtied during its pass, keeps the worker's livelock accounting, and
// stops after pollEvery passes, as a worker's run list does, handing the
// pool what is left. Claims are made under the lock of the engine whose
// fires woke the region, so the instance cannot finish closing (detach)
// while the walk holds any of its regions.
//
// Every link-state change happens inside some engine's fire loop, and the
// goroutine that ran that loop walks or posts its nudges afterwards, so no
// enablement is ever lost: the neighbor's pass happens-after the change
// via its lock acquisition.
func (e *Engine) walk() {
	rt := e.sched
	var buf [walkQueue]*Engine
	w := e.takeNudges(rt, regionQueue{q: buf[:0]})
	e.mu.Unlock()
	passes := 0
	for w.len() > 0 {
		if rt != nil && passes == pollEvery {
			rt.requeue(w.q[w.head:]...)
			break
		}
		passes++
		if rt == nil && passes > e.opts.MaxTauBurst {
			e.breakExternal(ErrLivelock)
			return
		}
		t := w.q[w.head]
		w.head++
		t.mu.Lock()
		if !t.closed && t.broken == nil {
			t.pass()
			if rt != nil {
				t.noteTauProgress()
			}
		}
		w = t.takeNudges(rt, w)
		t.flushSignals()
		dead := t.closed || t.broken != nil
		t.mu.Unlock()
		if rt != nil && t.endPass(dead, schedRunning) {
			if w.len() < walkQueue {
				w = w.push(t)
			} else {
				rt.requeue(t)
			}
		}
	}
	if rt != nil && passes > 0 {
		rt.caller.Add(int64(passes))
	}
}

// takeNudges moves the regions e's fires woke onto the walk's queue,
// skipping those already waiting there, and empties e's nudge buffer in
// place. With a runtime rt a region is queued only if the walk has room
// and claims it; any other goes through rt.wake. Called with e.mu held.
func (e *Engine) takeNudges(rt *Runtime, w regionQueue) regionQueue {
	for _, t := range e.outNudges {
		switch {
		case w.has(t):
		case rt == nil:
			w = w.push(t)
		case w.len() < walkQueue && t.schedState.CompareAndSwap(schedIdle, schedRunning):
			w = w.push(t)
		default:
			rt.wake(t)
		}
	}
	e.outNudges = e.outNudges[:0]
	return w
}

// settle runs the initial fire pass of a freshly built region (and its
// ripple effects): initially full links can enable relay fires before
// any task operation arrives.
func (e *Engine) settle() {
	if e.linkGate == nil {
		return
	}
	e.mu.Lock()
	e.pass()
	e.flushSignals()
	e.walk()
}

// linkCount returns the number of link endpoints attached to the engine.
func (e *Engine) linkCount() int {
	n := 0
	for i := range e.ends {
		n += len(e.ends[i].accept)
		if e.ends[i].emit != nil {
			n++
		}
	}
	return n
}

// relayChains returns the relay chains of plan that run in this process,
// each as the plan indices of its links from producer to consumer. A
// region is a spliceable relay when it holds one synthesized node and
// nothing else, its port faces no task, it has exactly one inbound and one
// outbound link, and it and both its neighbors are hosted here. A chain
// runs from a region that is no such relay through one or more relays to
// the next region that is none. Left out, so their relays run the fire
// loop: a chain whose two ends are one region, and a closed cycle of
// relays, which no other region feeds.
func relayChains(u *ca.Universe, plan *ca.RegionPlan, hosted func(int) bool) [][]int {
	if len(plan.Links) == 0 {
		return nil
	}
	// in/out hold a region's one inbound/outbound link, -1 for none and
	// -2 for several.
	in := make([]int, len(plan.Regions))
	out := make([]int, len(plan.Regions))
	for ri := range in {
		in[ri], out[ri] = -1, -1
	}
	note := func(slot *int, li int) {
		if *slot == -1 {
			*slot = li
		} else {
			*slot = -2
		}
	}
	for li, lk := range plan.Links {
		note(&out[lk.From], li)
		note(&in[lk.To], li)
	}
	relay := make([]bool, len(plan.Regions))
	for ri, spec := range plan.Regions {
		relay[ri] = len(spec.Auts) == 0 && len(spec.Nodes) == 1 &&
			u.DirOf(spec.Nodes[0]) == ca.DirNone && in[ri] >= 0 && out[ri] >= 0 &&
			hosted(ri) && hosted(plan.Links[in[ri]].From) && hosted(plan.Links[out[ri]].To)
	}
	var chains [][]int
	for li, lk := range plan.Links {
		if relay[lk.From] || !relay[lk.To] {
			continue
		}
		chain := []int{li}
		for r := lk.To; relay[r]; r = plan.Links[out[r]].To {
			chain = append(chain, out[r])
		}
		if plan.Links[chain[len(chain)-1]].To != lk.From {
			chains = append(chains, chain)
		}
	}
	return chains
}

// fold is a link spliced from a relay chain, with the plan indices of the
// chain's links (from producer to consumer) that Reset re-seeds it from.
type fold struct {
	l     *link
	chain []int
}

// spliceChain builds the one link standing for a relay chain: from the
// producer's port on the chain's first link to the consumer's port on its
// last, holding as many items as the chain's buffers together, and counting
// each item's relay hops on the consuming end (link.hops).
func (m *Multi) spliceChain(chain []int) {
	first, last := m.plan.Links[chain[0]], m.plan.Links[chain[len(chain)-1]]
	capacity := 0
	for _, li := range chain {
		capacity += m.plan.Links[li].Capacity
	}
	l := newLink(capacity)
	l.hops = int64(len(chain) - 1)
	l.src, l.srcPort = m.engines[first.From], first.SrcPort
	l.dst, l.dstPort = m.engines[last.To], last.DstPort
	l.src.addAccept(l.srcPort, l)
	l.dst.addEmit(l.dstPort, l)
	f := fold{l: l, chain: chain}
	f.seed(m.plan.Links)
	m.folds = append(m.folds, f)
}

// seed empties the folded link and loads the chain's initially full
// buffers, the one nearest the consumer first — the order the settled
// chain delivers them in — each with the relay hops it has ahead. Both
// sides must be quiescent, as for link.reset.
func (f fold) seed(links []ca.RegionLink) {
	l := f.l
	l.reset(ca.RegionLink{})
	l.seeds, l.seedNext = l.seeds[:0], 0
	for i := len(f.chain) - 1; i >= 0; i-- {
		if lk := links[f.chain[i]]; lk.Full {
			l.buf[l.tail.Load()] = lk.Initial
			l.tail.Add(1)
			l.seeds = append(l.seeds, int64(len(f.chain)-1-i))
		}
	}
}

// NewMultiRegions partitions the constituents into asynchronous regions
// (ca.PlanRegions): buffer-shaped constituents whose sides attach to
// different regions become bounded links, every other constituent joins
// the region of its shared ports, and link endpoints without a
// constituent get synthesized single-port node automata. Each region is
// an independently locked engine; cross-region coordination happens only
// through the links, so regions fire concurrently. A chain of relay
// regions between two other regions of this process is spliced into one
// link (relayChains): the relays get no engine, as a remote region gets
// none, while the plan and its region indices stay as planned.
//
// Beyond the connected components of the shared-port graph, which never
// share a region, the cut also splits connectors that are one
// component: any full buffer decouples the consensus on its two sides.
func NewMultiRegions(u *ca.Universe, auts []*ca.Automaton, opts Options) (*Multi, error) {
	return NewMultiRegionsBound(u, auts, opts, nil)
}

// NewMultiRegionsBound is NewMultiRegions with a construction hook: after
// each region's link endpoints are finalized (initLinks) and before it
// expands any state, bind is called with the region index, its planned
// spec, and the region engine. Generated backends use it to install
// static templates via Engine.BindGen; a bind that declines (or fails)
// simply leaves that region interpreted, so mixed instances are fine.
func NewMultiRegionsBound(u *ca.Universe, auts []*ca.Automaton, opts Options, bind func(ri int, spec ca.RegionSpec, eng *Engine)) (*Multi, error) {
	return newMultiRegions(u, auts, opts, ca.PlanRegions, Placement{}, bind)
}

// NewMultiRegionsPlaced is NewMultiRegions with a placement: only the
// hosted regions get engines in this process, and the links the
// placement splits are backed by the placement's Transport. Ports of
// remote regions stay routable (operations on them report the remote
// hosting), and the coordinator's statistics sum the local regions only.
func NewMultiRegionsPlaced(u *ca.Universe, auts []*ca.Automaton, opts Options, pl Placement) (*Multi, error) {
	if pl.Transport == nil {
		return nil, errors.New("engine: placement without a transport")
	}
	return newMultiRegions(u, auts, opts, ca.PlanRegions, pl, nil)
}

// NewOneRegion runs all constituents as one region under one lock: the
// plan with no cut, built directly, with no node automata. Its engine is
// the one New builds, with the same seed, on the plain engine's path: no
// region group, so no walk and no nudges.
func NewOneRegion(u *ca.Universe, auts []*ca.Automaton, opts Options) (*Multi, error) {
	return newMultiRegions(u, auts, opts, oneRegion, Placement{}, nil)
}

// oneRegion plans every constituent into one region with no link.
func oneRegion(_ *ca.Universe, auts []*ca.Automaton) *ca.RegionPlan {
	whole := ca.RegionSpec{Auts: make([]int, len(auts))}
	for i := range whole.Auts {
		whole.Auts[i] = i
	}
	return &ca.RegionPlan{Regions: []ca.RegionSpec{whole}}
}

func newMultiRegions(u *ca.Universe, auts []*ca.Automaton, opts Options, planner func(*ca.Universe, []*ca.Automaton) *ca.RegionPlan, placed Placement, bind func(ri int, spec ca.RegionSpec, eng *Engine)) (*Multi, error) {
	if len(auts) == 0 {
		return nil, errors.New("engine: no constituent automata")
	}
	for _, a := range auts {
		if a.U != u {
			return nil, errors.New("engine: constituent from foreign universe")
		}
	}
	plan := planner(u, auts)
	if placed.Hosted != nil && len(placed.Hosted) != len(plan.Regions) {
		return nil, fmt.Errorf("engine: placement hosts %d regions, plan has %d", len(placed.Hosted), len(plan.Regions))
	}
	hosted := func(ri int) bool { return placed.Hosted == nil || placed.Hosted[ri] }
	tr := placed.Transport
	if tr == nil {
		tr = memTransport{}
	}

	// spliced marks the relay regions and onChain the links that a relay
	// chain's one link stands for.
	chains := relayChains(u, plan, hosted)
	spliced := make([]bool, len(plan.Regions))
	onChain := make([]bool, len(plan.Links))
	for _, ch := range chains {
		for i, li := range ch {
			onChain[li] = true
			if i > 0 {
				spliced[plan.Links[li].From] = true
			}
		}
	}

	// One region needs no group: nothing to break along with it, no
	// neighbor to walk. A placement keeps it, for the transport's hooks.
	var group *regionGroup
	if len(plan.Regions) > 1 || placed.Transport != nil {
		group = &regionGroup{}
	}
	m := &Multi{owner: make([]int, u.NumPorts()), plan: plan,
		group: group, transport: placed.Transport}
	for i := range m.owner {
		m.owner[i] = -1
	}
	for ri, spec := range plan.Regions {
		sub := make([]*ca.Automaton, 0, len(spec.Auts)+len(spec.Nodes))
		for _, ai := range spec.Auts {
			sub = append(sub, auts[ai])
		}
		for _, p := range spec.Nodes {
			sub = append(sub, ca.NodeAutomaton(u, p))
		}
		// Every port is owned by its planned region, hosted here or not:
		// engineFor uses the map to name the remote hosting in errors.
		for _, a := range sub {
			a.Ports.ForEach(func(p ca.PortID) { m.owner[p] = ri })
		}
		if !hosted(ri) || spliced[ri] {
			m.engines = append(m.engines, nil)
			continue
		}
		ropts := opts
		// Distinct per-region streams keep each region's choices
		// reproducible for a given seed — the region index is global to
		// the plan, so a region's stream is identical no matter which
		// process hosts it.
		ropts.Seed = opts.Seed + int64(ri)
		eng, err := newEngine(u, sub, ropts)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("engine: region %d: %w", ri, err)
		}
		if group != nil {
			eng.group = group
			group.engines = append(group.engines, eng)
		}
		m.engines = append(m.engines, eng)
	}

	for li, lk := range plan.Links {
		if onChain[li] {
			m.links = append(m.links, nil)
			continue
		}
		prodLocal, consLocal := hosted(lk.From), hosted(lk.To)
		if !prodLocal && !consLocal {
			// Both sides remote: the link is some other process's concern.
			m.links = append(m.links, nil)
			continue
		}
		prod, cons, err := tr.Bind(li, lk, prodLocal, consLocal)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("engine: link %d: %w", li, err)
		}
		if prodLocal {
			prod.src, prod.srcPort = m.engines[lk.From], lk.SrcPort
			prod.src.addAccept(lk.SrcPort, prod)
		}
		if consLocal {
			cons.dst, cons.dstPort = m.engines[lk.To], lk.DstPort
			cons.dst.addEmit(lk.DstPort, cons)
		}
		if prodLocal {
			m.links = append(m.links, prod)
		} else {
			m.links = append(m.links, cons)
		}
	}
	for _, ch := range chains {
		m.spliceChain(ch)
	}

	for ri, e := range m.engines {
		if e == nil {
			continue
		}
		e.initLinks(len(plan.Regions[ri].Auts) == 0 && len(plan.Regions[ri].Nodes) == 1)
		if bind != nil {
			bind(ri, plan.Regions[ri], e)
		}
		if err := e.finish(); err != nil {
			m.Close()
			return nil, err
		}
	}
	// Connect the transport before any region fires: a settle pass
	// raises the half links' signals, which Start attaches to the peers,
	// and a dial error must reach the caller before anything runs.
	if err := tr.Start(m); err != nil {
		m.Close()
		return nil, fmt.Errorf("engine: transport: %w", err)
	}
	switch {
	case opts.Runtime != nil:
		// Shared runtime: the regions multiplex over an existing
		// process-wide pool. attach posts the initial wake of every
		// region, replacing the synchronous settle — relay fires enabled
		// by initially full links happen on the workers before (or
		// concurrently with) the first Send/Recv, which parks until a
		// fire completes its operation either way.
		m.sched = opts.Runtime
		m.sched.attach(m.live())
	case opts.Workers != 0:
		// Dedicated runtime (runtime.go): a worker pool owned by this
		// coordinator, sized by the caller and torn down at Close.
		m.sched = newDedicatedRuntime(opts.Workers, m.live())
	default:
		// Settle initially full links (Fifo1Full seeds) so relay fires
		// that need no task operation happen before the first Send/Recv.
		for _, e := range m.live() {
			e.settle()
		}
	}
	return m, nil
}
