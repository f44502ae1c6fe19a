package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the concurrent runtime for region-partitioned
// connectors: a fixed worker pool that runs region engines in response
// to wake-ups. In synchronous mode (no Workers, no Runtime) every
// cross-region nudge is drained inline by the goroutine that fired
// (region.go, Engine.walk), so a connector cut into eight regions
// still burns one core; with a runtime, a nudge becomes a wake-up and
// the affected regions fire concurrently, on the pool and on the tasks.
//
// A Runtime is either dedicated — owned by one Multi (Options.Workers
// != 0), capped at its region count, shut down with it — or shared:
// DefaultRuntime, or any NewRuntime the caller keeps, multiplexing the
// regions of arbitrarily many instances, which attach at construction
// and detach at Close, so Connect/Close churn spawns no goroutines. Both
// are the same machinery.
//
// Each engine carries a run state (idle / queued / running / dirty)
// advanced by compare-and-swap, which both deduplicates wake-ups and
// guarantees that no enablement is lost: a wake-up arriving while the
// engine runs flips it to dirty, and the finishing worker requeues it,
// so a fire pass happens-after every wake.
//
// With capacity-1 links every hop of an item is a wake-up, so where a
// woken engine runs decides what a hop costs. The rule is work first
// (Cilk-5's work-first principle): whoever's fire woke a region runs its
// pass next, if it can claim it, instead of handing it to a goroutine
// that has to be woken.
//
//   - A task operation that finished in register carries on itself: the
//     regions its fires woke, and the ones their passes wake in turn, run
//     on the task's goroutine (Engine.walk), claimed with the workers' CAS
//     and at most pollEvery passes per operation; the rest goes to the
//     pool. A scalar item then crosses a streaming chain on the goroutines
//     of its sender and receiver, and no worker is woken for it.
//   - A wake-up produced by a worker's own fire pass (flushWakes, the
//     dirty→queued requeue) goes on that worker's private run list — a
//     plain FIFO nobody else touches — and the worker continues with it.
//
// The runtime lock guards only the injection queue (one inbox per worker)
// and the parking of workers:
//
//   - wake-ups from outside the pool that nobody runs on the spot (a
//     parking task operation, a transport pump, attach, a region a
//     caller's walk could not claim or did not reach) go to the inbox of
//     the engine's home worker;
//   - surplus: while a worker is parked, a worker holding more than the
//     engine it is about to run moves one to its own inbox.
//
// Either push signals one parked worker, and the signaller takes it off
// the parked count, so two pushes never count on the same sleeper. A
// worker looks at the inboxes — its own, then its siblings' — when its
// run list is empty and, polling, after pollEvery passes in a row from
// the run list: an instance that feeds itself forever (streaming, or
// livelocked) delays an injected wake-up by at most that many passes of
// each worker, whatever the pool size. It parks when run list and inboxes
// are all empty.
//
// Entries are hints, not ownership: a worker claims an engine by CASing
// queued→running and drops entries that lose the race or whose engine
// went idle via detach. That is what makes detach safe without scanning
// any list — a stale entry for a detached or even pool-recycled engine is
// at worst one wasted CAS.

// Engine run states (Engine.schedState).
const (
	// schedIdle: quiescent, not queued; a wake-up must queue it.
	schedIdle int32 = iota
	// schedQueued: on a run list or inbox awaiting a fire pass.
	schedQueued
	// schedRunning: a worker or a caller's walk holds the engine for a
	// fire pass.
	schedRunning
	// schedDirty: running, and a wake-up arrived meanwhile; the holder
	// reruns the engine when the current pass finishes.
	schedDirty
)

// pollEvery bounds the consecutive passes a worker takes from its run
// list before it looks at the inboxes, and the passes a task runs after
// one operation (Engine.walk).
const pollEvery = 61

// engineRing is a FIFO of engines: a growable ring so the steady state —
// entries cycling through a warm buffer — allocates nothing, no matter
// how many instances churn through the runtime.
type engineRing struct {
	buf  []*Engine
	head int
	n    int
}

func (r *engineRing) push(e *Engine) {
	if r.n == len(r.buf) {
		grown := make([]*Engine, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

func (r *engineRing) pop() *Engine {
	if r.n == 0 {
		return nil
	}
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// RuntimeStats is a snapshot of a Runtime's scheduling counters, summed
// over its workers.
type RuntimeStats struct {
	// Passes counts the fire passes run: Local + Injected + Stolen +
	// Caller.
	Passes int64
	// Local passes continued from the worker's run list, Injected ones
	// came from its own inbox (wake-ups from outside the pool), Stolen
	// ones from another worker's (its surplus, or an injection it had not
	// reached). Caller passes ran on a task's goroutine, after its
	// operation finished (Engine.walk); the other three are the workers'.
	Local, Injected, Stolen, Caller int64
	// Parks counts how often a worker found nothing to run and slept.
	Parks int64
}

// worker is one pool goroutine's state. run, streak and stats belong to
// that goroutine alone; inbox and pub are guarded by rt.mu.
type worker struct {
	rt *Runtime
	id int
	// run is the private run list: engines this worker's passes woke.
	run engineRing
	// streak counts the passes taken from run since the worker last looked
	// at the inboxes. Not a running total: an idle pool has no memory, so a
	// recycled instance is scheduled exactly like a fresh one.
	streak int
	stats  RuntimeStats
	// inbox is this worker's share of the injection queue.
	inbox engineRing
	// pub is the copy of stats that Stats reads: the owner refreshes it
	// when it holds the lock anyway, so it lags a running worker by at
	// most pollEvery passes and is exact for a parked or exited one.
	pub RuntimeStats
}

// Runtime is a worker pool multiplexing region engines — of one
// connector instance (dedicated mode) or of arbitrarily many (shared
// mode) — over a fixed set of goroutines. The zero value is not usable;
// build one with NewRuntime or use DefaultRuntime.
type Runtime struct {
	mu      sync.Mutex
	workers []*worker
	cond    *sync.Cond
	// parked counts sleeping workers that no signal is in flight for.
	// Written under mu; workers read it without the lock to decide
	// whether surplus is worth publishing.
	parked atomic.Int32
	closed bool
	wg     sync.WaitGroup
	// nextHome hands out home workers round-robin across attach calls,
	// so the instances of a shared runtime spread over the pool instead
	// of all landing on worker 0.
	nextHome int
	// attached counts currently attached engines (diagnostics).
	attached int
	// caller counts the passes run by tasks' walks, added once per walk.
	caller atomic.Int64
	// dedicated marks a pool owned by a single Multi: Close of that
	// Multi shuts the pool down instead of detaching from it.
	dedicated bool
}

// defaultRuntime is the lazily started process-global pool backing
// instances connected with WithRuntime(nil).
var defaultRuntime = sync.OnceValue(func() *Runtime { return NewRuntime(0) })

// DefaultRuntime returns the process-global shared runtime, starting
// its GOMAXPROCS workers on first use. It is never shut down.
func DefaultRuntime() *Runtime { return defaultRuntime() }

// NewRuntime starts a shared runtime with the given number of workers
// (<= 0 selects GOMAXPROCS). Instances attach to it via
// Options.Runtime; Close stops the workers and must only be called
// after every attached instance has been closed.
func NewRuntime(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return startRuntime(workers, false)
}

// newDedicatedRuntime starts the per-instance pool of one Multi
// (Options.Workers != 0): workers < 0 selects GOMAXPROCS, and the pool
// is capped at the region count (extra workers could never run
// anything).
func newDedicatedRuntime(workers int, engines []*Engine) *Runtime {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := startRuntime(max(1, min(workers, len(engines))), true)
	rt.attach(engines)
	return rt
}

func startRuntime(workers int, dedicated bool) *Runtime {
	rt := &Runtime{workers: make([]*worker, workers), dedicated: dedicated}
	rt.cond = sync.NewCond(&rt.mu)
	rt.wg.Add(workers)
	for i := range rt.workers {
		rt.workers[i] = &worker{rt: rt, id: i}
	}
	for _, w := range rt.workers { // after the loop above: next reads the siblings
		go w.loop()
	}
	return rt
}

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Attached returns the number of engines currently multiplexed over
// the pool (diagnostics; racy by nature on a shared runtime).
func (rt *Runtime) Attached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.attached
}

// Stats sums the workers' counters as they last published them (see
// worker.pub), and the passes tasks ran: exact once the pool is idle or
// closed.
func (rt *Runtime) Stats() RuntimeStats {
	var s RuntimeStats
	rt.mu.Lock()
	for _, w := range rt.workers {
		s.Local += w.pub.Local
		s.Injected += w.pub.Injected
		s.Stolen += w.pub.Stolen
		s.Parks += w.pub.Parks
	}
	rt.mu.Unlock()
	s.Caller = rt.caller.Load()
	s.Passes = s.Local + s.Injected + s.Stolen + s.Caller
	return s
}

// attach hands a fresh (or recycled) instance's engines to the pool:
// assigns home workers, then posts the initial wake of every region —
// the worker-pool replacement for the synchronous settle, since
// initially full links can enable relay fires before any task
// operation arrives. The engines must be quiescent (schedIdle) and not
// attached to any runtime.
func (rt *Runtime) attach(engines []*Engine) {
	rt.mu.Lock()
	for _, e := range engines {
		e.sched = rt
		e.homeWorker = int32(rt.nextHome % len(rt.workers))
		rt.nextHome++
		e.schedState.Store(schedIdle)
	}
	rt.attached += len(engines)
	rt.mu.Unlock()
	rt.wake(engines...)
}

// detach returns a closing instance's engines to the quiescent state so
// they can be recycled (or collected). Every engine must already be
// closed or broken: closed engines produce no wake-ups, so once each
// one is observed idle it stays idle. Entries still sitting in run
// lists and inboxes are left behind — workers drop them when the
// queued→running claim fails.
func (rt *Runtime) detach(engines []*Engine) {
	for _, e := range engines {
		for {
			st := e.schedState.Load()
			if st == schedIdle {
				break
			}
			// A queued engine can be reclaimed directly: its entry becomes
			// stale and is dropped at pop time. Running or dirty means a
			// worker or a task's walk holds it for a pass; wait it out.
			if st == schedQueued && e.schedState.CompareAndSwap(schedQueued, schedIdle) {
				break
			}
			runtime.Gosched()
		}
		e.sched = nil
	}
	rt.mu.Lock()
	rt.attached -= len(engines)
	rt.mu.Unlock()
}

// requestPass advances e's run state for one wake-up and reports whether
// the caller must queue it; false means a pass that will see the change
// is already pending (queued, or dirty), or was just made so.
func (e *Engine) requestPass() bool {
	for {
		switch e.schedState.Load() {
		case schedIdle:
			if e.schedState.CompareAndSwap(schedIdle, schedQueued) {
				return true
			}
		case schedRunning:
			if e.schedState.CompareAndSwap(schedRunning, schedDirty) {
				return false
			}
		default:
			return false
		}
	}
}

// wake requests a fire pass for each of es from outside the pool,
// through the injection queue. Safe to call with an engine lock held: it
// only CASes the targets' run states and takes the runtime lock (engine
// locks are never acquired under the runtime lock).
func (rt *Runtime) wake(es ...*Engine) {
	locked := false
	for _, e := range es {
		if !e.requestPass() {
			continue
		}
		if !locked {
			rt.mu.Lock()
			locked = true
		}
		rt.inject(rt.workers[e.homeWorker], e)
	}
	if locked {
		rt.mu.Unlock()
	}
}

// inject queues e on w's inbox and, if a worker is parked, signals it and
// takes it off the parked count. Called with mu held. On a closed runtime
// the workers are gone and e is (being) closed too, so the pass it asked
// for has nothing left to do.
func (rt *Runtime) inject(w *worker, e *Engine) {
	if rt.closed {
		return
	}
	w.inbox.push(e)
	if rt.parked.Load() > 0 {
		rt.parked.Add(-1)
		rt.cond.Signal()
	}
}

// next returns the engine of the worker's next pass and the counter of
// w.stats to credit it to (see the file comment for the order); nil on
// shutdown.
func (w *worker) next() (*Engine, *int64) {
	rt := w.rt
	if w.run.n > 0 && w.streak < pollEvery {
		w.streak++
		if w.run.n > 1 && rt.parked.Load() > 0 {
			rt.mu.Lock()
			if rt.parked.Load() > 0 {
				rt.inject(w, w.run.pop())
			}
			rt.mu.Unlock()
		}
		return w.run.pop(), &w.stats.Local
	}
	w.streak = 0
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for !rt.closed {
		w.pub = w.stats
		for i := range rt.workers {
			if e := rt.workers[(w.id+i)%len(rt.workers)].inbox.pop(); e != nil {
				if i == 0 {
					return e, &w.stats.Injected
				}
				return e, &w.stats.Stolen
			}
		}
		if e := w.run.pop(); e != nil {
			return e, &w.stats.Local
		}
		w.stats.Parks++
		w.pub.Parks++
		rt.parked.Add(1)
		rt.cond.Wait()
	}
	w.pub = w.stats
	return nil, nil
}

func (w *worker) loop() {
	defer w.rt.wg.Done()
	for {
		e, passes := w.next()
		if e == nil {
			return
		}
		// Claim the entry. A failed claim means the entry is stale — the
		// engine was detached (idle), or another entry for it already ran
		// and it has since been claimed again — and is simply dropped.
		if !e.schedState.CompareAndSwap(schedQueued, schedRunning) {
			continue
		}
		*passes++
		w.runEngine(e)
	}
}

// runEngine performs one fire pass of e. Wake-ups the pass produced go
// on the worker's run list in flushWakes while the engine lock is still
// held (after fireLoop returned, so every deferred link commit is
// published); livelock accounting (noteTauProgress) runs there too,
// against the instance's own region group, so one instance's throughput
// can never mask another's relay livelock on a shared pool.
func (w *worker) runEngine(e *Engine) {
	e.mu.Lock()
	if !e.closed && e.broken == nil {
		e.pass()
		e.noteTauProgress()
	}
	// Flush nudges even from a pass that broke the engine: link-state
	// changes it made before breaking must still wake the neighbors. The
	// pass is rerun if a wake-up arrived meanwhile (endPass).
	e.flushWakes(w)
	e.flushSignals()
	closedNow := e.closed || e.broken != nil
	e.mu.Unlock()
	if e.endPass(closedNow, schedQueued) {
		w.run.push(e)
	}
}

// endPass leaves the running state after a pass of e. A wake that arrived
// during the pass flipped it to dirty, and the pass must be rerun: endPass
// moves e to next — queued for a worker's run list, running for a walk
// that reruns it itself — and reports true. Not so if the engine is closed
// or broken: the wake has nothing left to observe, and requeueing would
// keep a dead engine cycling through the pool.
func (e *Engine) endPass(closedNow bool, next int32) bool {
	for {
		if e.schedState.CompareAndSwap(schedRunning, schedIdle) {
			return false
		}
		if closedNow {
			if e.schedState.CompareAndSwap(schedDirty, schedIdle) {
				return false
			}
		} else if e.schedState.CompareAndSwap(schedDirty, next) {
			return true
		}
	}
}

// requeue hands the pool engines a task's walk holds (running or dirty)
// but will not run: each goes to its home worker's inbox. Other goroutines
// only ever flip a held engine from running to dirty, which queued
// subsumes, so a plain store makes the transition.
func (rt *Runtime) requeue(es ...*Engine) {
	rt.mu.Lock()
	for _, e := range es {
		e.schedState.Store(schedQueued)
		rt.inject(rt.workers[e.homeWorker], e)
	}
	rt.mu.Unlock()
}

// Close stops the workers and waits for them to exit. Idempotent. Every
// attached instance must already be closed: pending entries are dropped,
// which is only safe because a closed engine's pass has nothing to fire.
// The process-global DefaultRuntime is never closed.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if !rt.closed {
		rt.closed = true
		rt.parked.Store(0)
		rt.cond.Broadcast()
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	return nil
}

// flushWakes turns the cross-region nudges collected by this engine's
// fires into wake-ups — on w's private run list when the pass ran on
// pool worker w, through the injection queue when w is nil (a task's
// operation that parks) — and resets the buffer in place, so the scheduler path
// re-uses one nudge buffer forever instead of allocating per pass.
// Called with e.mu held, after fireLoop returned — every link commit
// the fires deferred is published by then, so a woken neighbor always
// observes the queue state that enabled it. (Lock order: engine locks
// may take the runtime lock, never the reverse.)
func (e *Engine) flushWakes(w *worker) {
	if len(e.outNudges) == 0 {
		return
	}
	if w == nil {
		e.sched.wake(e.outNudges...)
	} else {
		for _, t := range e.outNudges {
			if t.requestPass() {
				w.run.push(t)
			}
		}
	}
	e.outNudges = e.outNudges[:0]
}

// noteCompletion records boundary-operation progress for the τ-livelock
// budget shared by the instance's regions. Called with e.mu held after
// register's fire loop.
func (e *Engine) noteCompletion() {
	if e.fireCompleted && e.group != nil {
		e.group.completions.Add(1)
	}
}

// noteTauProgress advances the engine's τ-burst accounting after a
// fire pass of a worker or a task's walk: link-only passes with no boundary completion
// anywhere in the instance's region group accumulate, and a full
// MaxTauBurst of them means a token is spinning through pure relay
// regions — a closed cycle of links with no task on it — so the engine
// breaks with ErrLivelock, as the synchronous walk budget would. Any
// group-wide completion since the engine's last pass resets the burst:
// healthy global throughput is not a livelock, even if this engine's
// own diet is pure relay. Called with e.mu held; the counters live on
// the engine (one holder runs an engine at a time, so they need no
// atomicity beyond the lock).
func (e *Engine) noteTauProgress() {
	g := e.group
	if g == nil {
		return
	}
	if e.fireCompleted {
		g.completions.Add(1)
		e.linkBurst = 0
		e.lastSeen = g.completions.Load()
		return
	}
	if !e.fireLinkActive {
		return // quiescent visit; produces no wake-ups, cannot spin
	}
	if cur := g.completions.Load(); cur != e.lastSeen {
		e.lastSeen = cur
		e.linkBurst = 1 // this link-only pass starts a fresh window
		return
	}
	e.linkBurst++
	if e.linkBurst > e.opts.MaxTauBurst {
		e.break_(ErrLivelock)
	}
}
