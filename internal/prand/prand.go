package prand

// splitmix64 advances the SplitMix64 state and returns the next output.
// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014.
func splitmix64(state uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash2 hashes two words into one well-mixed word.
func Hash2(a, b uint64) uint64 {
	return splitmix64(splitmix64(a) ^ (b * 0x9e3779b97f4a7c15))
}

// Hash3 hashes three words into one well-mixed word.
func Hash3(a, b, c uint64) uint64 { return Mix(Hash2(a, b), c) }

// Mix folds c into h = Hash2(a, b), giving Hash3(a, b, c): a caller
// hashing many c under one (a, b) computes Hash2 once.
func Mix(h, c uint64) uint64 {
	return splitmix64(h ^ (c * 0xd6e8feb86659fd93))
}

// Gen is a sequential SplitMix64 generator. The zero value is a valid
// generator seeded with 0.
type Gen struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *Gen { return &Gen{state: seed} }

// Uint64 returns the next 64 uniformly random bits.
func (g *Gen) Uint64() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (g *Gen) Intn(n int) int {
	if n <= 0 {
		panic("prand: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping; bias is negligible (n ≪ 2⁶⁴)
	// and irrelevant for tie-breaking.
	hi, _ := mul64(g.Uint64(), uint64(n))
	return int(hi)
}

// Split derives an independent child generator. Streams derived with
// distinct ids are statistically independent of the parent and each other.
func (g *Gen) Split(id uint64) *Gen {
	return &Gen{state: Hash2(g.Uint64(), id)}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := ah*bl + (al*bl)>>32
	lo = a * b
	hi = ah*bh + t>>32 + (al*bh+t&mask)>>32
	return hi, lo
}
