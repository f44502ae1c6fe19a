package ca

import (
	"errors"
	"fmt"
)

// ExpandMode selects how joint global steps are enumerated from the local
// steps of a set of constituent automata.
type ExpandMode uint8

const (
	// ExpandConnected enumerates only "connected" global steps: sets of
	// local transitions linked through shared fired ports. Global steps
	// consisting of several mutually independent local transitions are
	// not combined — they occur as consecutive steps instead, which is
	// observationally equivalent and avoids an exponential number of
	// transitions per composite state.
	ExpandConnected ExpandMode = iota
	// ExpandFull enumerates every consistent combination, including
	// combinations of mutually independent local transitions. This is
	// the textbook product; per-state transition counts can grow
	// exponentially in the number of independent constituents — the
	// blow-up §V-C(3) of the paper observes for NPB with N ≥ 16.
	ExpandFull
)

// StateKey is a packed composite-state identifier: a fixed-size,
// comparable key for maps over composite states, replacing per-lookup
// string conversion on hot paths.
type StateKey [4]uint64

// StatePacker packs composite state tuples into StateKeys. Each
// constituent gets a fixed bit field sized by its state count; fields
// never straddle word boundaries. When the total exceeds 256 bits (dozens
// of constituents with large local spaces), the packer falls back to
// interning tuples: lookups of already-seen tuples remain allocation-free
// (map[string] lookup with an in-place byte-slice conversion), and only
// the first visit of a state allocates. The intern table is append-only —
// IDs must stay stable for keys already handed out — so in the fallback
// regime memory grows with the distinct states visited even when the
// caller bounds its own cache; a deliberate tradeoff, far smaller per
// state than the expansions such a cache declines to keep. The Expander's
// cluster memo is kept on the same terms: it is never evicted, and it is
// polynomial in the number of constituents where the set of composite
// states is exponential.
type StatePacker struct {
	word  []int
	shift []uint
	// fallback interning (packable == false)
	packable bool
	intern   map[string]uint64
	buf      []byte
}

// NewStatePacker sizes a packer for the given constituents' state spaces.
func NewStatePacker(auts []*Automaton) *StatePacker {
	k := &StatePacker{
		word:     make([]int, len(auts)),
		shift:    make([]uint, len(auts)),
		packable: true,
	}
	word, used := 0, uint(0)
	for i, a := range auts {
		n := a.NumStates()
		width := uint(1)
		for 1<<width < n {
			width++
		}
		if used+width > 64 {
			word++
			used = 0
		}
		if word >= len(StateKey{}) {
			k.packable = false
			break
		}
		k.word[i] = word
		k.shift[i] = used
		used += width
	}
	if !k.packable {
		k.intern = make(map[string]uint64)
		k.buf = make([]byte, 4*len(auts))
	}
	return k
}

// Key packs a state tuple. For packable spaces this never allocates; the
// interning fallback allocates only on the first visit of a tuple.
func (k *StatePacker) Key(state []int32) StateKey {
	if k.packable {
		var sk StateKey
		for i, s := range state {
			sk[k.word[i]] |= uint64(uint32(s)) << k.shift[i]
		}
		return sk
	}
	b := k.buf
	for i, v := range state {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	id, ok := k.intern[string(b)]
	if !ok {
		id = uint64(len(k.intern))
		k.intern[string(b)] = id
	}
	return StateKey{id, ^uint64(0), ^uint64(0), ^uint64(0)}
}

// ErrTooLarge is returned when materializing a product exceeds limits —
// the analogue of the existing compiler failing to compile a connector
// whose large automaton is too big (paper §V-B).
var ErrTooLarge = errors.New("ca: product exceeds size limits")

// ProductLimits bounds eager product construction.
type ProductLimits struct {
	MaxStates      int // 0 = default
	MaxTransitions int // 0 = default
}

func (l ProductLimits) states() int {
	if l.MaxStates <= 0 {
		return 1 << 20
	}
	return l.MaxStates
}

func (l ProductLimits) transitions() int {
	if l.MaxTransitions <= 0 {
		return 4 << 20
	}
	return l.MaxTransitions
}

// ProductAll materializes the synchronous product of the constituents as a
// single automaton, restricted to the states reachable from the initial
// configuration (ahead-of-time composition, §IV-D). Mode selects the joint
// enumeration rule. Returns ErrTooLarge if limits are exceeded.
func ProductAll(auts []*Automaton, mode ExpandMode, lim ProductLimits) (*Automaton, error) {
	if len(auts) == 0 {
		return nil, errors.New("ca: empty product")
	}
	u := auts[0].U
	for _, a := range auts {
		if a.U != u {
			return nil, errors.New("ca: product constituents from different universes")
		}
	}
	k := len(auts)
	packer := NewStatePacker(auts)
	keyOf := packer.Key

	init := make([]int32, k)
	for i, a := range auts {
		init[i] = a.Initial
	}

	index := map[StateKey]int32{keyOf(init): 0}
	tuples := [][]int32{init}
	out := &Automaton{
		Name:    "product",
		U:       u,
		Ports:   u.NewSet(),
		Initial: 0,
	}
	for _, a := range auts {
		out.Ports.OrInto(a.Ports)
	}
	totalTrans := 0
	x := NewExpander(auts, mode)
	var steps []*Cluster
	target := make([]int32, k)
	for qi := 0; qi < len(tuples); qi++ {
		steps = x.Expand(tuples[qi], steps[:0])
		ts := make([]Transition, 0, len(steps))
		for _, c := range steps {
			copy(target, tuples[qi])
			c.Apply(target)
			key := keyOf(target)
			tgt, ok := index[key]
			if !ok {
				tgt = int32(len(tuples))
				index[key] = tgt
				tuples = append(tuples, append([]int32(nil), target...))
				if len(tuples) > lim.states() {
					return nil, fmt.Errorf("%w: >%d states", ErrTooLarge, lim.states())
				}
			}
			ts = append(ts, Transition{Target: tgt, Sync: c.Sync, Guards: c.Guards, Acts: c.Acts})
		}
		totalTrans += len(ts)
		if totalTrans > lim.transitions() {
			return nil, fmt.Errorf("%w: >%d transitions", ErrTooLarge, lim.transitions())
		}
		out.Trans = append(out.Trans, ts)
	}
	return out, nil
}

// Product composes two automata with the textbook binary rule — used for
// compile-time composition of a definition's constituents section into a
// medium automaton (§IV-C). Equivalent to ProductAll with ExpandFull but
// kept binary for clarity and testability of algebraic laws.
func Product(a, b *Automaton, lim ProductLimits) (*Automaton, error) {
	return ProductAll([]*Automaton{a, b}, ExpandFull, lim)
}
