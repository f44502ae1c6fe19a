package ca_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ca"
	"repro/internal/prim"
)

// randomPipeline builds a random chain of Sync/Fifo1/LossySync primitives
// over shared intermediate vertices — a family of well-formed connectors
// for property testing.
func randomPipeline(r *rand.Rand, u *ca.Universe, length int) []*ca.Automaton {
	var auts []*ca.Automaton
	prev := u.FreshPort("v")
	for i := 0; i < length; i++ {
		next := u.FreshPort("v")
		switch r.Intn(3) {
		case 0:
			auts = append(auts, prim.Sync(u, prev, next))
		case 1:
			auts = append(auts, prim.Fifo1(u, prev, next))
		default:
			auts = append(auts, prim.LossySync(u, prev, next))
		}
		prev = next
	}
	return auts
}

// TestProductAssociativeSizes: ((a×b)×c) and (a×(b×c)) have identical
// reachable state and transition counts for random pipelines.
func TestProductAssociativeSizes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prop := func() bool {
		u := ca.NewUniverse()
		auts := randomPipeline(r, u, 3)
		ab, err := ca.Product(auts[0], auts[1], ca.ProductLimits{})
		if err != nil {
			return false
		}
		abc1, err := ca.Product(ab, auts[2], ca.ProductLimits{})
		if err != nil {
			return false
		}
		bc, err := ca.Product(auts[1], auts[2], ca.ProductLimits{})
		if err != nil {
			return false
		}
		abc2, err := ca.Product(auts[0], bc, ca.ProductLimits{})
		if err != nil {
			return false
		}
		return abc1.NumStates() == abc2.NumStates() &&
			abc1.NumTransitions() == abc2.NumTransitions()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProductMatchesKWayExpansion: the materialized ProductAll agrees
// with an Expander on the initial state's step count (full mode).
func TestProductMatchesKWayExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prop := func() bool {
		u := ca.NewUniverse()
		auts := randomPipeline(r, u, 4)
		p, err := ca.ProductAll(auts, ca.ExpandFull, ca.ProductLimits{})
		if err != nil {
			return false
		}
		states := make([]int32, len(auts))
		joints := ca.NewExpander(auts, ca.ExpandFull).Expand(states, nil)
		return len(p.Trans[p.Initial]) == len(joints)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConnectedSubsetOfFull: every connected joint appears among the full
// joints (same sync set and targets).
func TestConnectedSubsetOfFull(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	prop := func() bool {
		u := ca.NewUniverse()
		auts := randomPipeline(r, u, 4)
		states := make([]int32, len(auts))
		conn := ca.NewExpander(auts, ca.ExpandConnected).Expand(states, nil)
		full := ca.NewExpander(auts, ca.ExpandFull).Expand(states, nil)
		key := func(c *ca.Cluster) string {
			targets := append([]int32(nil), states...)
			c.Apply(targets)
			return c.Sync.String() + "|" + string(encodeTargets(targets))
		}
		fullSet := map[string]bool{}
		for _, j := range full {
			fullSet[key(j)] = true
		}
		for _, j := range conn {
			if !fullSet[key(j)] {
				return false
			}
		}
		return len(conn) <= len(full)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func encodeTargets(ts []int32) []byte {
	out := make([]byte, len(ts))
	for i, v := range ts {
		out[i] = byte(v)
	}
	return out
}

// TestExpandAfterUniverseGrowth: automata built before new ports are
// interned still compose (bit-set padding regression, unit level).
func TestExpandAfterUniverseGrowth(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	early := prim.Sync(u, a, b) // 2-port universe: 1-word bit sets
	for i := 0; i < 70; i++ {
		u.FreshPort("grow")
	}
	c := u.FreshPort("c") // id > 63
	late := prim.Sync(u, b, c)
	joints := ca.NewExpander([]*ca.Automaton{early, late}, ca.ExpandConnected).Expand([]int32{0, 0}, nil)
	if len(joints) != 1 {
		t.Fatalf("joints = %d, want 1", len(joints))
	}
	if !joints[0].Sync.Has(c) || !joints[0].Sync.Has(a) {
		t.Error("padded joint lost ports")
	}
}

// TestHideAfterGrowth: hiding with a full-size mask on a pre-growth
// automaton must not panic and must clear the port.
func TestHideAfterGrowth(t *testing.T) {
	u := ca.NewUniverse()
	a, b := u.Port("a"), u.Port("b")
	s := prim.Sync(u, a, b)
	s.PadToUniverse()
	for i := 0; i < 70; i++ {
		u.FreshPort("grow")
	}
	s.PadToUniverse()
	h := ca.Hide(s, u.SetOf(b))
	if h.Trans[0][0].Sync.Has(b) {
		t.Error("hide failed after growth")
	}
}
