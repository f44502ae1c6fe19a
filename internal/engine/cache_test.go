package engine

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
	"repro/internal/prim"
)

func ck(n uint64) ca.StateKey { return ca.StateKey{n} }

func keys(c *jointCache) map[uint64]bool {
	out := make(map[uint64]bool, len(c.m))
	for k := range c.m {
		out[k[0]] = true
	}
	return out
}

func TestJointCacheLRUEvictionOrder(t *testing.T) {
	c := newJointCache(2, LRU, rand.New(rand.NewSource(1)))
	c.put(ck(1), &expanded{})
	c.put(ck(2), &expanded{})
	// Touch 1 so 2 becomes least recently used.
	if _, ok := c.get(ck(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	c.put(ck(3), &expanded{})
	got := keys(c)
	if !got[1] || !got[3] || got[2] {
		t.Errorf("LRU kept %v, want {1,3}", got)
	}
	if c.evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.evictions)
	}
	// Another insert must now evict 1 (3 was used more recently? no:
	// insertion counts as use; 1 was used before 3 was inserted).
	c.put(ck(4), &expanded{})
	got = keys(c)
	if !got[3] || !got[4] || got[1] {
		t.Errorf("LRU kept %v, want {3,4}", got)
	}
}

func TestJointCacheFIFOIgnoresUse(t *testing.T) {
	c := newJointCache(2, FIFO, rand.New(rand.NewSource(1)))
	c.put(ck(1), &expanded{})
	c.put(ck(2), &expanded{})
	// Touch 1; FIFO must still evict it first (oldest insertion).
	c.get(ck(1))
	c.get(ck(1))
	c.put(ck(3), &expanded{})
	got := keys(c)
	if !got[2] || !got[3] || got[1] {
		t.Errorf("FIFO kept %v, want {2,3}", got)
	}
	if c.evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.evictions)
	}
}

func TestJointCacheRandomEvictBounded(t *testing.T) {
	c := newJointCache(4, RandomEvict, rand.New(rand.NewSource(7)))
	for i := uint64(0); i < 100; i++ {
		c.put(ck(i), &expanded{})
	}
	if c.len() != 4 {
		t.Errorf("len = %d, want 4", c.len())
	}
	if c.evictions != 96 {
		t.Errorf("evictions = %d, want 96", c.evictions)
	}
	// The swap-delete bookkeeping must keep entries and map consistent.
	if len(c.entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(c.entries))
	}
	for i, e := range c.entries {
		if e.idx != i {
			t.Errorf("entries[%d].idx = %d", i, e.idx)
		}
		if c.m[e.key] != e {
			t.Errorf("entries[%d] not in map", i)
		}
	}
}

func TestJointCacheUnboundedNeverEvicts(t *testing.T) {
	c := newJointCache(0, LRU, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 1000; i++ {
		c.put(ck(i), &expanded{})
	}
	if c.len() != 1000 || c.evictions != 0 {
		t.Errorf("len = %d evictions = %d, want 1000/0", c.len(), c.evictions)
	}
	// A state seen once has an entry but no expansion, and is not counted
	// until a put keeps it.
	c.markSeen(ck(1000))
	if ex, seen := c.get(ck(1000)); ex != nil || !seen || c.len() != 1000 {
		t.Errorf("seen-once entry: get = %v, %v; len = %d, want nil, true, 1000", ex, seen, c.len())
	}
	c.put(ck(1000), &expanded{})
	if ex, _ := c.get(ck(1000)); ex == nil || c.len() != 1001 {
		t.Errorf("kept on put: get = %v, len = %d, want an expansion, 1001", ex, c.len())
	}
}

// TestReExpansionAfterEviction: with a cache bound of one state, a Fifo1's
// two composite states evict each other on every step, so every revisit
// must re-expand — and the connector must still move data correctly.
func TestReExpansionAfterEviction(t *testing.T) {
	for _, pol := range []EvictionPolicy{LRU, FIFO, RandomEvict} {
		t.Run(pol.String(), func(t *testing.T) {
			u := ca.NewUniverse()
			a, b := u.Port("a"), u.Port("b")
			u.SetDir(a, ca.DirSource)
			u.SetDir(b, ca.DirSink)
			e, err := New(u, []*ca.Automaton{prim.Fifo1(u, a, b)}, Options{CacheSize: 1, Policy: pol, Seed: 3})
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
			// Every step enters the state it just evicted: expansions must
			// track steps, not the two-state space.
			if e.Expansions() < 2*rounds {
				t.Errorf("expansions = %d, want >= %d (cache bound forces re-expansion)", e.Expansions(), 2*rounds)
			}
			if e.Evictions() < 2*rounds-1 {
				t.Errorf("evictions = %d, want >= %d", e.Evictions(), 2*rounds-1)
			}
			if e.CachedStates() != 1 {
				t.Errorf("cached states = %d, want 1", e.CachedStates())
			}
		})
	}
}

func TestJointCachePutExistingIsNoop(t *testing.T) {
	c := newJointCache(2, LRU, rand.New(rand.NewSource(1)))
	ex := &expanded{}
	c.put(ck(1), ex)
	c.put(ck(1), &expanded{})
	got, ok := c.get(ck(1))
	if !ok || got != ex {
		t.Error("re-put replaced the original expansion")
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}
