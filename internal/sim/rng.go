package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Streams derives independent, named random streams from a single root
// seed. Each subsystem (latency sampling, churn, topology, workload, ...)
// draws from its own stream, so adding a random draw in one subsystem does
// not perturb the sequence seen by any other — experiments stay comparable
// across code changes and ablations.
type Streams struct {
	seed int64

	mu      sync.Mutex
	streams map[string]*rand.Rand
}

// NewStreams returns a stream family rooted at seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Seed returns the root seed the family was created with.
func (s *Streams) Seed() int64 { return s.seed }

// Stream returns the named stream, creating it deterministically on first
// use. The per-name seed is an FNV-1a hash of the root seed and the name,
// so streams are stable across runs and independent of creation order.
func (s *Streams) Stream(name string) *rand.Rand {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(DeriveSeed(s.seed, name)))
	s.streams[name] = r
	return r
}

// Names returns the names of all streams created so far, sorted.
func (s *Streams) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.streams))
	for n := range s.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeriveSeed maps (root, name) to a child seed via FNV-1a, the same
// derivation Streams uses for its named streams. Exported so campaign
// engines can derive independent per-replication root seeds that are
// stable across runs and uncorrelated with every in-simulation stream.
func DeriveSeed(root int64, name string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(root) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	v := int64(h.Sum64())
	if v == 0 {
		v = 1 // rand.NewSource(0) is legal but keep seeds distinguishable from "unset"
	}
	return v
}

// Exponential draws an exponentially distributed duration with the given
// mean. A non-positive mean returns 0.
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Weibull draws from a Weibull distribution with scale lambda > 0 and
// shape k > 0. Session-length measurement studies of Bitcoin peers are
// well fit by Weibull with k < 1 (many short sessions, a long tail).
func Weibull(r *rand.Rand, lambda, k float64) float64 {
	if lambda <= 0 || k <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return lambda * math.Pow(-math.Log(u), 1/k)
}
