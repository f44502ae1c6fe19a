package engine

import (
	"repro/internal/ca"
)

// jointCache memoizes composite-state expansions, keyed by packed
// StateKeys so steady-state lookups never allocate. It admits a state on
// its second visit (see Engine.expandState) and never evicts, so every
// kept expansion, and every successor link to one, stays valid for the
// engine's life. cap bounds the kept states; 0 means unbounded. Not safe
// for concurrent use; the engine serializes access.
type jointCache struct {
	// m holds the kept expansions, and a nil entry for every state seen
	// once and not kept. kept counts the non-nil entries.
	m    map[ca.StateKey]*expanded
	kept int
	cap  int
}

func newJointCache(capacity int) *jointCache {
	return &jointCache{m: make(map[ca.StateKey]*expanded), cap: capacity}
}

// get returns the expansion kept for key, nil if there is none, and
// whether key was seen before: a state seen once has an entry but no
// expansion.
func (c *jointCache) get(key ca.StateKey) (ex *expanded, seen bool) {
	ex, seen = c.m[key]
	return ex, seen
}

// full reports whether the cache admits no more states.
func (c *jointCache) full() bool { return c.cap > 0 && c.kept >= c.cap }

// markSeen records the first visit of key, unless the cache is full: a
// state first seen then could never be admitted, so the map stops growing.
func (c *jointCache) markSeen(key ca.StateKey) {
	if !c.full() {
		c.m[key] = nil
	}
}

// put keeps ex as key's expansion; a key already kept keeps its own.
func (c *jointCache) put(key ca.StateKey, ex *expanded) {
	if c.m[key] == nil {
		c.m[key] = ex
		c.kept++
	}
}
