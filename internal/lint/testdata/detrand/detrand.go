// Fixture for the detrand analyzer: checked as-if it were a
// deterministic package (repro/internal/sim).
package fixture

import (
	cryptorand "crypto/rand"
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func flagged() {
	_ = time.Now()                     // want `wall-clock time\.Now`
	_ = time.Since(time.Time{})        // want `wall-clock time\.Since`
	time.Sleep(time.Millisecond)       // want `wall-clock time\.Sleep`
	_ = rand.Intn(10)                  // want `global math/rand\.Intn`
	_ = rand.Float64()                 // want `global math/rand\.Float64`
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand\.Shuffle`
	_ = randv2.Uint64()                // want `global math/rand/v2\.Uint64`
	_ = cryptorand.Reader              // want `crypto/rand\.Reader`
}

func clean() {
	// Explicitly seeded generators and their methods are the sanctioned
	// idiom; constructors are exempt by full identity — defining package,
	// name, and result type — and methods never match.
	r := rand.New(rand.NewSource(1))
	_ = r.Intn(10)
	_ = r.Float64()
	_ = rand.NewZipf(r, 1.5, 1, 100)
	r2 := randv2.New(randv2.NewPCG(1, 2))
	_ = r2.IntN(5)
	_ = randv2.NewChaCha8([32]byte{})
	// Pure time arithmetic and constructors do not read the clock.
	_ = time.Unix(42, 0)
	_ = 5 * time.Millisecond
	_ = time.Duration(7).String()
}
