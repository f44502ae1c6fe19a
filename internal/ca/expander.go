package ca

import "fmt"

// Delta is one local move of a global step: constituent Aut enters local
// state Target.
type Delta struct{ Aut, Target int32 }

// Cluster is one global execution step in sparse form: a consistent
// combination of local transitions, described only by what it touches.
// Clusters returned by a connected-mode Expander are shared between all
// composite states that offer them and must be treated as immutable,
// except for the Plan slot.
type Cluster struct {
	// Sync is the union of the chosen transitions' synchronization sets.
	Sync BitSet
	// Guards and Acts are the concatenations over the chosen transitions,
	// by ascending constituent index.
	Guards []Guard
	Acts   []Action
	// Deltas lists, by ascending constituent index, the constituents the
	// step moves to a different local state; every other constituent
	// (idle, or participating through a self-loop) keeps its own.
	Deltas []Delta
	// Plan is a slot for the owner of the Expander to keep the cluster's
	// compiled form in, so that it is compiled once however many composite
	// states contain the cluster. The Expander never reads it.
	Plan *Plan
}

// Apply moves state along the cluster: state becomes the step's target.
func (c *Cluster) Apply(state []int32) {
	for _, d := range c.Deltas {
		state[d.Aut] = d.Target
	}
}

// memoNode is one node of a seed transition's decision trie. An inner
// node names the constituent whose local state selects the child; a leaf
// holds the clusters the seed transition yields once every local state on
// the path is as given.
type memoNode struct {
	read     int32       // constituent consulted next; -1 at a leaf
	kids     []*memoNode // by that constituent's local state, grown on demand
	clusters []*Cluster  // leaf: in enumeration (depth-first) order
}

// Expander enumerates the global steps of a fixed set of constituents,
// one composite state at a time, and — in connected mode — remembers what
// it enumerated at the granularity the enumeration actually depends on.
//
// The connected steps seeded by transition t of constituent s depend only
// on the local states of the constituents the enumeration consults while
// growing t's cluster: the ones pulled in through shared ports, including
// those that merely prune a branch by having no compatible transition.
// That read-set, in the order it is first consulted, is the memo key: the
// enumeration is deterministic, so equal values for the first j reads
// imply the same (j+1)-th read, which makes the keys of one seed
// transition a trie (memoNode). Expanding a composite state is then one
// trie walk per local transition of every constituent, concatenating the
// leaves in the order the enumeration would have produced them.
//
// Unlike a cache of composite states, whose size is the product of the
// local state spaces, the memo holds one leaf per combination of local
// states of a cluster's read-set — for connectors built from small
// synchronous islands a polynomial number — and is therefore never
// evicted. Full mode combines independent steps, so every step depends on
// every constituent; it is enumerated afresh on each call.
//
// An Expander is not safe for concurrent use.
type Expander struct {
	auts []*Automaton
	mode ExpandMode
	// memo[seed][local state][transition] is the root of the trie for one
	// seed transition; every level is filled in on first use.
	memo [][][]*memoNode

	// Enumeration scratch. chosen[i] is the transition constituent i takes
	// in the combination being built, -1 while it idles; sync the union of
	// the chosen sync sets; tmp a stack of bit sets for the recursion.
	chosen []int32
	sync   BitSet
	forb   BitSet
	tmp    []BitSet
	// reads is the read-set of the running connected enumeration in
	// first-read order, wasRead its membership test.
	reads   []int32
	wasRead []bool
	found   []*Cluster
}

// NewExpander prepares the enumeration of auts' global steps under mode.
// All automata must share one Universe, which must not grow afterwards.
// No step is enumerated until Expand asks for it.
func NewExpander(auts []*Automaton, mode ExpandMode) *Expander {
	for _, a := range auts {
		a.PadToUniverse()
	}
	return &Expander{auts: auts, mode: mode}
}

// Expand appends to out the global steps available in composite state
// states (one local state per constituent) and returns the extended slice.
//
// A combination {t_i} is consistent iff for the union S of all chosen
// sync sets, every constituent j satisfies S ∩ Ports(j) == Sync(t_j)
// (with Sync(idle) = ∅): a port shared by several constituents flows in
// all of them or in none. Connected mode lists the consistent
// combinations linked through shared fired ports, ordered by their
// lowest-index participant (the seed), then by the seed's transition, then
// depth-first over the constituents pulled in.
func (x *Expander) Expand(states []int32, out []*Cluster) []*Cluster {
	if len(x.auts) == 0 {
		return out
	}
	if x.chosen == nil {
		x.chosen = make([]int32, len(x.auts))
		for i := range x.chosen {
			x.chosen[i] = -1
		}
		x.wasRead = make([]bool, len(x.auts))
		x.sync = x.auts[0].U.NewSet()
		x.memo = make([][][]*memoNode, len(x.auts))
	}
	if x.mode == ExpandFull {
		return x.expandFull(states, out)
	}
	for seed, a := range x.auts {
		s := states[seed]
		nt := len(a.Trans[s])
		if nt == 0 {
			continue
		}
		for int(s) >= len(x.memo[seed]) {
			x.memo[seed] = append(x.memo[seed], nil)
		}
		if x.memo[seed][s] == nil {
			x.memo[seed][s] = make([]*memoNode, nt)
		}
		roots := x.memo[seed][s]
		for ti := range roots {
			n := roots[ti]
			for n != nil && n.read >= 0 {
				if rs := states[n.read]; int(rs) < len(n.kids) {
					n = n.kids[rs]
				} else {
					n = nil
				}
			}
			if n == nil {
				n = x.miss(states, seed, ti, &roots[ti])
			}
			out = append(out, n.clusters...)
		}
	}
	return out
}

// miss enumerates the clusters seeded by transition ti of constituent
// seed, files them in the trie rooted at *slot under the read-set the
// enumeration consulted, and returns the new leaf.
func (x *Expander) miss(states []int32, seed, ti int, slot **memoNode) *memoNode {
	t := &x.auts[seed].Trans[states[seed]][ti]
	x.chosen[seed] = int32(ti)
	copy(x.sync, t.Sync)
	x.reads, x.found = x.reads[:0], x.found[:0]
	x.grow(states, seed, 0)
	x.chosen[seed] = -1

	for _, c := range x.reads {
		x.wasRead[c] = false
		n := *slot
		switch {
		case n == nil:
			n = &memoNode{read: c}
			*slot = n
		case n.read != c:
			// The key would be unsound: some input of the enumeration
			// other than the local states read so far steered it.
			panic(fmt.Sprintf("ca: expander for seed %d consulted constituent %d where it consulted %d before", seed, c, n.read))
		}
		rs := states[c]
		for int(rs) >= len(n.kids) {
			n.kids = append(n.kids, nil)
		}
		slot = &n.kids[rs]
	}
	if *slot != nil {
		panic(fmt.Sprintf("ca: expander for seed %d re-enumerated a memoised read-set", seed))
	}
	leaf := &memoNode{read: -1, clusters: append([]*Cluster(nil), x.found...)}
	*slot = leaf
	return leaf
}

// scratch returns the recursion's bit set number i.
func (x *Expander) scratch(i int) BitSet {
	for i >= len(x.tmp) {
		x.tmp = append(x.tmp, x.auts[0].U.NewSet())
	}
	return x.tmp[i]
}

// grow recursively satisfies the constraint that every constituent whose
// alphabet intersects sync participates with a matching projection.
// Constituents with index < seed must not be pulled in: if the sync set
// forces one, the cluster is found from that smaller seed and is
// abandoned here. Every constituent whose local state is consulted is
// noted in reads.
func (x *Expander) grow(states []int32, seed, depth int) {
	forced := -1
	for i, a := range x.auts {
		if x.chosen[i] < 0 && a.Ports.Intersects(x.sync) {
			if i < seed {
				return
			}
			forced = i
			break
		}
	}
	if forced < 0 {
		// Verify the projections of all participants (sync may have
		// grown after they were chosen).
		for i, a := range x.auts {
			if x.chosen[i] < 0 {
				continue
			}
			if !a.Trans[states[i]][x.chosen[i]].Sync.IntersectionEqual(x.sync, a.Ports) {
				return
			}
		}
		x.found = append(x.found, x.cluster(states))
		return
	}
	if !x.wasRead[forced] {
		x.wasRead[forced] = true
		x.reads = append(x.reads, int32(forced))
	}
	a := x.auts[forced]
	added := x.scratch(depth)
	for ti := range a.Trans[states[forced]] {
		t := &a.Trans[states[forced]][ti]
		if !x.sync.MaskedSubsetOf(a.Ports, t.Sync) {
			continue
		}
		x.chosen[forced] = int32(ti)
		added.SetAndNot(t.Sync, x.sync)
		x.sync.OrInto(added)
		x.grow(states, seed, depth+1)
		x.sync.AndNotInto(added)
	}
	x.chosen[forced] = -1
}

// expandFull is a complete backtracking enumeration with forward pruning:
// the textbook product, where every step depends on every constituent.
func (x *Expander) expandFull(states []int32, out []*Cluster) []*Cluster {
	if x.forb == nil {
		x.forb = x.auts[0].U.NewSet()
	}
	x.found = x.found[:0]
	x.full(states, 0, false)
	return append(out, x.found...)
}

// full decides constituent i. forb holds the ports owned by an
// already-decided constituent but not fired by it.
func (x *Expander) full(states []int32, i int, nonIdle bool) {
	if i == len(x.auts) {
		if nonIdle {
			x.found = append(x.found, x.cluster(states))
		}
		return
	}
	a := x.auts[i]
	syncAdd, forbAdd := x.scratch(2*i), x.scratch(2*i+1)
	// Option: idle. Valid iff no already-fired port belongs to a.
	if !x.sync.Intersects(a.Ports) {
		forbAdd.SetAndNot(a.Ports, x.forb)
		x.forb.OrInto(forbAdd)
		x.full(states, i+1, nonIdle)
		x.forb.AndNotInto(forbAdd)
	}
	// Options: each local transition.
	for ti := range a.Trans[states[i]] {
		t := &a.Trans[states[i]][ti]
		// Ports fired by t must not be forbidden, and every already-fired
		// port owned by a must be fired by t.
		if t.Sync.Intersects(x.forb) || !x.sync.MaskedSubsetOf(a.Ports, t.Sync) {
			continue
		}
		x.chosen[i] = int32(ti)
		syncAdd.SetAndNot(t.Sync, x.sync)
		x.sync.OrInto(syncAdd)
		// Ports of a not fired by t become forbidden, except those
		// already forbidden.
		forbAdd.SetAndNot(a.Ports, x.forb)
		forbAdd.AndNotInto(t.Sync)
		x.forb.OrInto(forbAdd)
		x.full(states, i+1, true)
		x.forb.AndNotInto(forbAdd)
		x.sync.AndNotInto(syncAdd)
	}
	x.chosen[i] = -1
}

// cluster materialises the combination currently held in chosen and sync.
func (x *Expander) cluster(states []int32) *Cluster {
	c := &Cluster{Sync: x.sync.Clone()}
	for i, a := range x.auts {
		if x.chosen[i] < 0 {
			continue
		}
		t := &a.Trans[states[i]][x.chosen[i]]
		c.Guards = append(c.Guards, t.Guards...)
		c.Acts = append(c.Acts, t.Acts...)
		if t.Target != states[i] {
			c.Deltas = append(c.Deltas, Delta{Aut: int32(i), Target: t.Target})
		}
	}
	return c
}
