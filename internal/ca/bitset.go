package ca

import (
	"math/bits"
	"strconv"
	"strings"
)

// BitSet is a fixed-capacity bit set used for port sets in transition
// labels. All BitSets participating in one operation must come from the
// same Universe (same capacity); operations do not reallocate.
type BitSet []uint64

// NewBitSet returns an empty bit set with capacity for n bits.
func NewBitSet(n int) BitSet {
	return make(BitSet, (n+63)/64)
}

// Set sets bit i. The caller must ensure i is within capacity.
func (b BitSet) Set(i PortID) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b BitSet) Clear(i PortID) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b BitSet) Has(i PortID) bool {
	w := int(i >> 6)
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

// IsEmpty reports whether no bit is set.
func (b BitSet) IsEmpty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of b.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// OrInto sets b |= o in place.
func (b BitSet) OrInto(o BitSet) {
	for i := range o {
		b[i] |= o[i]
	}
}

// AndNotInto sets b &^= o in place.
func (b BitSet) AndNotInto(o BitSet) {
	for i := range o {
		b[i] &^= o[i]
	}
}

// SetAndNot sets b = x &^ y in place; b may alias x.
func (b BitSet) SetAndNot(x, y BitSet) {
	for i := range b {
		b[i] = x[i] &^ y[i]
	}
}

// Or returns a fresh bit set holding b | o.
func (b BitSet) Or(o BitSet) BitSet {
	c := make(BitSet, len(b))
	for i := range b {
		c[i] = b[i] | o[i]
	}
	return c
}

// Equal reports whether b and o hold the same bits.
func (b BitSet) Equal(o BitSet) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share any bit.
func (b BitSet) Intersects(o BitSet) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// MaskedSubsetOf reports whether b∩mask ⊆ of, without allocating.
func (b BitSet) MaskedSubsetOf(mask, of BitSet) bool {
	for i := range b {
		if b[i]&mask[i]&^of[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectionEqual reports whether b∩mask == o∩mask without allocating.
func (b BitSet) IntersectionEqual(o, mask BitSet) bool {
	for i := range mask {
		if (b[i]^o[i])&mask[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit, in increasing order.
func (b BitSet) ForEach(f func(PortID)) {
	for i, w := range b {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			f(PortID(i*64 + j))
			w &= w - 1
		}
	}
}

// Ports returns the set bits as a sorted slice.
func (b BitSet) Ports() []PortID {
	out := make([]PortID, 0, b.Count())
	b.ForEach(func(p PortID) { out = append(out, p) })
	return out
}

// String renders the set as "{1,5,9}" for debugging.
func (b BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(p PortID) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(strconv.Itoa(int(p)))
	})
	sb.WriteByte('}')
	return sb.String()
}
