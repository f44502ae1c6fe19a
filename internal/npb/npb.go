package npb

import (
	"fmt"
	"math"
	"sync"
)

// Class is an NPB problem class.
type Class byte

// Problem classes in increasing size.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// ParseClass converts a one-letter class name.
func ParseClass(s string) (Class, error) {
	if len(s) != 1 {
		return 0, fmt.Errorf("npb: bad class %q", s)
	}
	switch Class(s[0]) {
	case ClassS, ClassW, ClassA, ClassB, ClassC:
		return Class(s[0]), nil
	}
	return 0, fmt.Errorf("npb: bad class %q", s)
}

func (c Class) String() string { return string(c) }

// Variant selects the coordination implementation.
type Variant uint8

// Variants.
const (
	Serial Variant = iota
	Orig
	Reo
	// Gen runs the Reo coordination structure on the generated backend:
	// the msfabric package (internal/genlib/msfabric), whose per-region
	// code was emitted once by `reoc gen` and is instantiated at the
	// requested slave count at run time.
	Gen
)

func (v Variant) String() string {
	switch v {
	case Serial:
		return "serial"
	case Orig:
		return "orig"
	case Gen:
		return "gen"
	default:
		return "reo"
	}
}

// Result is a program run's verification outcome.
type Result struct {
	Program  string
	Class    Class
	Variant  Variant
	Slaves   int
	Checksum float64
	Verified bool
	// Steps counts connector global steps (Reo variant only).
	Steps int64
}

// Program is one NPB benchmark program.
type Program interface {
	Name() string
	// Run executes the program. slaves is ignored for Serial.
	Run(class Class, variant Variant, slaves int) (*Result, error)
}

// Programs returns all seven NPB programs.
func Programs() []Program {
	return []Program{NewEP(), NewIS(), NewCG(), NewMG(), NewFT(), NewLU(), NewBT(), NewSP()}
}

// ProgramByName looks a program up.
func ProgramByName(name string) (Program, error) {
	for _, p := range Programs() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("npb: unknown program %q", name)
}

// --- NPB pseudorandom numbers -------------------------------------------
//
// The NPB linear congruential generator: x_{k+1} = a·x_k mod 2^46 with
// a = 5^13, yielding uniform doubles in (0,1) as x/2^46.

const (
	lcgA    = 1220703125 // 5^13
	lcgMod  = 1 << 46
	lcgMask = lcgMod - 1
)

// Rand is the NPB LCG.
type Rand struct{ x uint64 }

// NewRand seeds the generator (NPB uses 271828183 for EP, 314159265
// elsewhere).
func NewRand(seed uint64) *Rand { return &Rand{x: seed & lcgMask} }

// mulMod46 returns a*b mod 2^46 (exact: uint64 products of 46-bit values
// overflow, so split a into high/low 23-bit halves).
func mulMod46(a, b uint64) uint64 {
	const half = 1 << 23
	a1, a0 := a/half, a%half
	t := (a1 * b) % (lcgMod / half) // a1*b * 2^23 mod 2^46 needs a1*b mod 2^23
	return (t*half + a0*b) & lcgMask
}

// Next returns the next uniform double in (0,1).
func (r *Rand) Next() float64 {
	r.x = mulMod46(lcgA, r.x)
	return float64(r.x) / float64(lcgMod)
}

// Skip advances the generator by n steps in O(log n) (used by EP slaves
// to jump to their chunk's position in the stream).
func (r *Rand) Skip(n uint64) {
	a := uint64(lcgA)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r.x = mulMod46(a, r.x)
		}
		a = mulMod46(a, a)
	}
}

// Raw returns the raw 46-bit state (testing).
func (r *Rand) Raw() uint64 { return r.x }

// --- verification helpers -------------------------------------------------

// serialCache memoizes serial reference checksums per (program, class),
// so benchmark timings of the parallel variants are not dominated by
// recomputing the reference.
var serialCache sync.Map

func cachedSerial(key string, f func() float64) float64 {
	if v, ok := serialCache.Load(key); ok {
		return v.(float64)
	}
	v := f()
	serialCache.Store(key, v)
	return v
}

// closeEnough compares checksums with a relative tolerance.
func closeEnough(got, want float64) bool {
	if want == 0 {
		return math.Abs(got) < 1e-8
	}
	return math.Abs(got-want)/math.Abs(want) < 1e-8
}

// splitRange partitions [0,total) into n near-equal chunks; returns the
// bounds of chunk i.
func splitRange(total, n, i int) (lo, hi int) {
	base := total / n
	rem := total % n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
