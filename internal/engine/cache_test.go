package engine

import (
	"testing"

	"repro/internal/ca"
	"repro/internal/prim"
)

func ck(n uint64) ca.StateKey { return ca.StateKey{n} }

// admit runs the engine's admission rule for one visit of key: a first
// visit is marked, a later one keeps ex unless the cache is full.
func admit(c *jointCache, key ca.StateKey, ex *expanded) {
	if got, seen := c.get(key); got == nil {
		if !seen || c.full() {
			c.markSeen(key)
		} else {
			c.put(key, ex)
		}
	}
}

func TestJointCacheUnboundedNeverEvicts(t *testing.T) {
	c := newJointCache(0)
	for i := uint64(0); i < 1000; i++ {
		c.put(ck(i), &expanded{})
	}
	if c.kept != 1000 || c.full() {
		t.Errorf("kept = %d, full = %v; want 1000, false", c.kept, c.full())
	}
	// A state seen once has an entry but no expansion, and is not counted
	// until a put keeps it.
	c.markSeen(ck(1000))
	if ex, seen := c.get(ck(1000)); ex != nil || !seen || c.kept != 1000 {
		t.Errorf("seen-once entry: get = %v, %v; kept = %d, want nil, true, 1000", ex, seen, c.kept)
	}
	c.put(ck(1000), &expanded{})
	if ex, _ := c.get(ck(1000)); ex == nil || c.kept != 1001 {
		t.Errorf("kept on put: get = %v, kept = %d, want an expansion, 1001", ex, c.kept)
	}
}

// TestJointCacheBoundedStopsAdmitting: a bounded cache keeps states on
// their second visit until it holds its bound, then keeps what it has —
// nothing is evicted — and stops recording first visits.
func TestJointCacheBoundedStopsAdmitting(t *testing.T) {
	c := newJointCache(4)
	kept := make(map[uint64]*expanded)
	for i := uint64(0); i < 100; i++ {
		for visit := 0; visit < 2; visit++ {
			ex := &expanded{}
			admit(c, ck(i), ex)
			if got, _ := c.get(ck(i)); got == ex {
				kept[i] = ex
			}
		}
	}
	if c.kept != 4 || len(kept) != 4 || !c.full() {
		t.Fatalf("kept = %d (%d admitted), full = %v; want 4, 4, true", c.kept, len(kept), c.full())
	}
	for i, ex := range kept {
		if i >= 4 {
			t.Errorf("state %d admitted after the cache was full", i)
		}
		if got, _ := c.get(ck(i)); got != ex {
			t.Errorf("state %d: kept expansion replaced", i)
		}
	}
	if len(c.m) != 4 {
		t.Errorf("map holds %d entries, want the 4 kept: a full cache records no first visits", len(c.m))
	}
}

// TestReExpansionAfterEviction: with a cache bound of one state, the
// eviction policies this cache replaced made a Fifo1's two states evict
// each other on every step; the subtests keep their names. Nothing is
// evicted now: the cache keeps the first state entered twice — the
// initial, empty state — and must re-expand the other on every visit,
// still moving data correctly.
func TestReExpansionAfterEviction(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "random"} {
		t.Run(name, func(t *testing.T) {
			u := ca.NewUniverse()
			a, b := u.Port("a"), u.Port("b")
			u.SetDir(a, ca.DirSource)
			u.SetDir(b, ca.DirSink)
			e, err := New(u, []*ca.Automaton{prim.Fifo1(u, a, b)}, Options{CacheSize: 1, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const rounds = 10
			for i := 0; i < rounds; i++ {
				if err := e.Send(a, i); err != nil {
					t.Fatal(err)
				}
				v, err := e.Recv(b)
				if err != nil || v != i {
					t.Fatalf("recv = %v, %v; want %d", v, err, i)
				}
			}
			if e.Steps() != 2*rounds {
				t.Errorf("steps = %d, want %d", e.Steps(), 2*rounds)
			}
			// The empty state costs two expansions, the full one one per visit.
			if e.Expansions() != rounds+2 {
				t.Errorf("expansions = %d, want %d", e.Expansions(), rounds+2)
			}
			if e.CachedStates() != 1 || len(e.cache.m) != 2 {
				t.Errorf("cached states = %d of %d entries, want 1 of 2", e.CachedStates(), len(e.cache.m))
			}
		})
	}
}

func TestJointCachePutExistingIsNoop(t *testing.T) {
	c := newJointCache(2)
	ex := &expanded{}
	c.put(ck(1), ex)
	c.put(ck(1), &expanded{})
	got, ok := c.get(ck(1))
	if !ok || got != ex {
		t.Error("re-put replaced the original expansion")
	}
	if c.kept != 1 {
		t.Errorf("kept = %d, want 1", c.kept)
	}
}
