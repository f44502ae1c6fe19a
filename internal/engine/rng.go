package engine

// pickRNG is the engine's nondeterministic-choice stream: an
// xorshift64* generator whose entire state is one word, so each of the
// (possibly very many) live engines costs 8 bytes of randomness state
// instead of math/rand's ~5 KB table — and reseeding on instance reset
// is a handful of multiplies rather than a 607-word reinitialization.
// Dispatch picks need uniformity over a handful of candidates, not
// cryptographic quality, and determinism per seed is preserved: the
// same seed always yields the same choice sequence.
type pickRNG struct{ s uint64 }

// reseed (re)initializes the stream for a seed. The seed is passed
// through a splitmix64 finalizer so nearby seeds — region engines use
// opts.Seed + regionIndex — start in uncorrelated states; the state is
// kept nonzero (a zero xorshift state is a fixed point).
func (r *pickRNG) reseed(seed int64) {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	r.s = z
}

// Intn returns a uniform pick in [0, n). n must be > 0 and small (the
// engine picks among enabled transitions); the modulo
// bias over the 32-bit output scramble is negligible at those sizes.
func (r *pickRNG) Intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	x := r.s * 0x2545F4914F6CDD1D
	return int((x >> 32) % uint64(n))
}
