package engine

import (
	"repro/internal/ca"
)

// intner is the pick randomness jointCache needs (RandomEvict);
// satisfied by both *rand.Rand and the engine's pickRNG.
type intner interface{ Intn(n int) int }

// EvictionPolicy selects which expanded composite state to discard when a
// bounded state cache is full (the §V-B future-work extension).
type EvictionPolicy uint8

const (
	// LRU evicts the least recently used state.
	LRU EvictionPolicy = iota
	// FIFO evicts the state expanded longest ago.
	FIFO
	// RandomEvict evicts a uniformly random state.
	RandomEvict
)

func (p EvictionPolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	default:
		return "random"
	}
}

type centry struct {
	key        ca.StateKey
	ex         *expanded
	prev, next *centry
	idx        int // position in entries slice (RandomEvict)
}

// jointCache memoizes composite-state expansions, keyed by packed
// StateKeys so steady-state lookups never allocate. cap == 0 means
// unbounded. Not safe for concurrent use; the engine serializes access.
type jointCache struct {
	cap    int
	policy EvictionPolicy
	// all is the unbounded cache's one map (cap == 0; m stays nil): the
	// kept expansions, and a nil entry for every state seen once and not
	// kept (see Engine.expandState). kept counts the non-nil entries.
	all  map[ca.StateKey]*expanded
	kept int
	// m and the rest order a bounded cache's entries for eviction.
	m         map[ca.StateKey]*centry
	head      *centry // most recent (LRU) / newest (FIFO)
	tail      *centry // eviction candidate
	entries   []*centry
	rng       intner
	evictions int64
}

func newJointCache(capacity int, policy EvictionPolicy, rng intner) *jointCache {
	c := &jointCache{cap: capacity, policy: policy, rng: rng}
	if capacity == 0 {
		c.all = make(map[ca.StateKey]*expanded)
	} else {
		c.m = make(map[ca.StateKey]*centry)
	}
	return c
}

// len returns the number of expansions kept.
func (c *jointCache) len() int {
	if c.cap == 0 {
		return c.kept
	}
	return len(c.m)
}

// get returns the expansion kept for key, nil if there is none, and
// whether key was seen before: in an unbounded cache a state seen once
// has an entry but no expansion.
func (c *jointCache) get(key ca.StateKey) (ex *expanded, seen bool) {
	if c.cap == 0 {
		ex, seen = c.all[key]
		return ex, seen
	}
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	if c.policy == LRU {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.ex, true
}

// markSeen records an unbounded cache's first visit of key.
func (c *jointCache) markSeen(key ca.StateKey) { c.all[key] = nil }

// put keeps ex as key's expansion; a key already kept keeps its own.
func (c *jointCache) put(key ca.StateKey, ex *expanded) {
	if c.cap == 0 {
		if c.all[key] == nil {
			c.all[key] = ex
			c.kept++
		}
		return
	}
	if _, ok := c.m[key]; ok {
		return
	}
	e := &centry{key: key, ex: ex}
	if len(c.m) >= c.cap {
		c.evict()
	}
	c.m[key] = e
	if c.policy == RandomEvict {
		e.idx = len(c.entries)
		c.entries = append(c.entries, e)
	} else {
		c.pushFront(e)
	}
}

func (c *jointCache) evict() {
	c.evictions++
	if c.policy == RandomEvict {
		i := c.rng.Intn(len(c.entries))
		victim := c.entries[i]
		last := len(c.entries) - 1
		c.entries[i] = c.entries[last]
		c.entries[i].idx = i
		c.entries = c.entries[:last]
		delete(c.m, victim.key)
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.m, victim.key)
}

func (c *jointCache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *jointCache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
