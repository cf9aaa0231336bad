package sim

// Keyed (counter-less) randomness for order-independent draws.
//
// A draw taken from a shared sequential stream depends on every draw
// before it: change how many sends, probes or links precede an event and
// every later sampled value — and therefore every downstream byte —
// shifts. KeyedSource removes that coupling by deriving each draw sequence
// from a stable key (for example (seed, sender, send sequence number))
// instead of from global draw order: any execution order that performs the
// same logical draws produces the same values, so a link's parameters do
// not depend on when the link was first used and a send's delay does not
// depend on what other nodes sent before it.
//
// The generator is splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): a single 64-bit counter
// advanced by the golden-ratio increment and finalized by an avalanching
// mix. It is well distributed, passes BigCrush, and — critically for the
// hot path — re-keying is a single store, so a fresh statistically
// independent stream per (sender, message) costs nothing and allocates
// nothing. math/rand's default source, by contrast, carries ~5 KB of
// lagged-Fibonacci state and cannot be re-seeded cheaply.

// KeyedSource is a splitmix64 generator implementing rand.Source64. It is
// valid when zero-keyed but is intended to be re-keyed before each logical
// draw group via SeedKey. Not safe for concurrent use.
type KeyedSource struct {
	state uint64
}

// SeedKey re-keys the source. Draw sequences for distinct keys are
// statistically independent; the same key always yields the same sequence.
func (s *KeyedSource) SeedKey(key uint64) { s.state = key }

// Seed implements rand.Source. It mixes the seed so that small integer
// seeds (the common case in tests) land in unrelated parts of the cycle.
func (s *KeyedSource) Seed(seed int64) { s.state = Mix64(uint64(seed)) }

// Uint64 implements rand.Source64: one splitmix64 step.
func (s *KeyedSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *KeyedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// MixKey3 combines three words into a well-distributed key. Its fixed
// arity keeps hot paths free of a variadic slice allocation.
func MixKey3(a, b, c uint64) uint64 {
	x := Mix64(a + 0x9E3779B97F4A7C15)
	x = Mix64(x ^ b)
	return Mix64(x ^ c)
}
