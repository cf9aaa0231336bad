// Package latency models link latency between Bitcoin peers and implements
// the paper's distance utility function (eqs. 2-4).
//
// The paper decomposes the one-way "distance" D(i,j) between peers i and j
// into three delay terms:
//
//	D(i,j) = Mping/rate(r) + 2·P + q́        (eq. 2)
//	P      = D(m)/S                          (eq. 3)
//	q́      = Mping / (r − λ·Mping)           (eq. 4, M/M/1 service form)
//
// where Mping is the ping message length in bytes, rate(r) the link
// transmission rate, P the signal propagation time over the geographic
// distance D(m) at medium speed S (multiplied by 2 for the round trip),
// and q́ the mean queuing delay at the receiver given ping arrival rate λ.
//
// On top of the deterministic utility, the Link type samples *measured*
// RTTs: the utility value plus last-mile inflation and congestion jitter,
// matching the paper's observation that "distance measurements are subject
// to network congestion and therefore dynamic, within some variance" —
// which is why BCBPT sends repeated pings and estimates.
package latency

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
)

// Medium selects the signal propagation speed S of eq. (3).
type Medium int

const (
	// Copper propagates at 2/3 c, the paper's wired figure. It is the
	// default: Bitcoin peers overwhelmingly sit on wired links.
	Copper Medium = iota
	// Wireless propagates at c.
	Wireless
)

// String implements fmt.Stringer.
func (m Medium) String() string {
	switch m {
	case Copper:
		return "copper"
	case Wireless:
		return "wireless"
	default:
		return fmt.Sprintf("Medium(%d)", int(m))
	}
}

// speedMetersPerSec returns S for the medium.
func (m Medium) speedMetersPerSec() float64 {
	const c = 3e8
	switch m {
	case Wireless:
		return c
	default:
		return 2.0 / 3.0 * c
	}
}

// Params are the constants of the utility function. The zero value is not
// useful; start from DefaultParams.
type Params struct {
	// PingBytes is Mping, the ping message length. Bitcoin's ping message
	// is a 8-byte nonce payload plus the 24-byte header; 32 bytes total.
	PingBytes int
	// RateBytesPerSec is rate(r), the link transmission rate. The paper
	// quotes ~100 KB/hour for the gossip budget; for the serialization
	// term we use a conservative residential uplink (1 MB/s) — the term
	// is negligible either way for 32-byte pings, and the queuing term
	// uses the gossip budget separately.
	RateBytesPerSec float64
	// Medium selects the propagation speed S.
	Medium Medium
	// ArrivalRatePerSec is λ, the mean rate at which pings arrive at the
	// measured peer. Used by the queuing term.
	ArrivalRatePerSec float64
	// PathStretch inflates the great-circle distance to account for the
	// fact that fiber routes are not geodesics (typical stretch 1.5-2.5;
	// the internet's "circuitousness" literature centres near 2).
	PathStretch float64
}

// DefaultParams returns the parameter set used throughout the experiments.
func DefaultParams() Params {
	return Params{
		PingBytes:         32,
		RateBytesPerSec:   1 << 20, // 1 MiB/s
		Medium:            Copper,
		ArrivalRatePerSec: 4, // a peer pings each neighbour every ~30s; ~125 peers max
		PathStretch:       2.0,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.PingBytes <= 0 {
		return fmt.Errorf("latency: PingBytes = %d, must be positive", p.PingBytes)
	}
	if p.RateBytesPerSec <= 0 {
		return fmt.Errorf("latency: RateBytesPerSec = %g, must be positive", p.RateBytesPerSec)
	}
	if p.ArrivalRatePerSec < 0 {
		return fmt.Errorf("latency: ArrivalRatePerSec = %g, must be non-negative", p.ArrivalRatePerSec)
	}
	if p.PathStretch < 1 {
		return fmt.Errorf("latency: PathStretch = %g, must be >= 1", p.PathStretch)
	}
	return nil
}

// TransmissionDelay returns the Mping/rate(r) term of eq. (2).
func (p Params) TransmissionDelay() time.Duration {
	sec := float64(p.PingBytes) / p.RateBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// PropagationDelay returns P of eq. (3) for a geographic distance in
// meters (one way), including path stretch.
func (p Params) PropagationDelay(distanceMeters float64) time.Duration {
	if distanceMeters < 0 {
		distanceMeters = 0
	}
	sec := distanceMeters * p.PathStretch / p.Medium.speedMetersPerSec()
	return time.Duration(sec * float64(time.Second))
}

// QueuingDelay returns q́ of eq. (4): the mean M/M/1-style queuing+service
// delay for a ping of Mping bytes served at rate r with arrival rate λ.
// The paper's typesetting renders the formula ambiguously
// ("q́=Mping /r-ƛ*Mping"); the standard M/M/1 mean sojourn form
// 1/(μ−λ) with μ = r/Mping gives q́ = Mping/(r − λ·Mping), which is what we
// implement. If the system would be unstable (λ·Mping >= r) the delay is
// capped at one second rather than returning infinity.
func (p Params) QueuingDelay() time.Duration {
	const maxQueue = time.Second
	denom := p.RateBytesPerSec - p.ArrivalRatePerSec*float64(p.PingBytes)
	if denom <= 0 {
		return maxQueue
	}
	sec := float64(p.PingBytes) / denom
	d := time.Duration(sec * float64(time.Second))
	if d > maxQueue {
		return maxQueue
	}
	return d
}

// Utility returns D(i,j) of eq. (2) — the deterministic round-trip
// distance estimate for a geographic separation of distanceMeters.
func (p Params) Utility(distanceMeters float64) time.Duration {
	return p.TransmissionDelay() + 2*p.PropagationDelay(distanceMeters) + p.QueuingDelay()
}

// UtilityBetween is a convenience wrapper computing Utility over the
// great-circle distance between two coordinates.
func (p Params) UtilityBetween(a, b geo.Coord) time.Duration {
	return p.Utility(geo.DistanceMeters(a, b))
}

// Model converts geographic placements into sampled round-trip times.
// A Model is shared by all links of a simulation; per-link state lives in
// Link values it creates.
type Model struct {
	params Params
	// lastMileMu/Sigma parameterise the per-link log-normal last-mile
	// inflation (access network, home router, peering) added to the
	// geographic baseline. Median exp(mu) ms.
	lastMileMu    float64
	lastMileSigma float64
	// congestion jitter: with probability spikeProb a sample is inflated
	// by a Pareto-tailed spike; otherwise a small Gaussian wobble.
	wobbleFrac  float64
	spikeProb   float64
	spikeXmMs   float64
	spikeAlpha  float64
	minSampleMs float64
}

// NewModel returns a Model with the default empirical-shape parameters.
// The defaults produce RTT distributions whose quartiles match published
// Bitcoin network measurements (median ~100-150ms, long tail to seconds).
func NewModel(params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		params:        params,
		lastMileMu:    math.Log(18), // median 18ms of last-mile+peering overhead
		lastMileSigma: 0.55,
		wobbleFrac:    0.06,
		spikeProb:     0.03,
		spikeXmMs:     25,
		spikeAlpha:    1.6,
		minSampleMs:   0.2,
	}, nil
}

// Params returns the model's utility-function parameters.
func (m *Model) Params() Params { return m.params }

// Link is the latency state of one (i,j) pair: a fixed baseline drawn at
// link creation plus per-sample congestion noise.
type Link struct {
	model *Model
	// base is the congestion-free RTT: utility function over geography
	// plus this link's last-mile draw.
	base time.Duration
}

// NewLink creates the link between two placements, drawing its last-mile
// component from r.
func (m *Model) NewLink(r *rand.Rand, a, b geo.Coord) Link {
	base := m.params.UtilityBetween(a, b)
	lastMileMs := math.Exp(m.lastMileMu + m.lastMileSigma*r.NormFloat64())
	base += time.Duration(lastMileMs * float64(time.Millisecond))
	return Link{model: m, base: base}
}

// maxNormalDraw bounds the magnitude of what math/rand's NormFloat64
// returns, short of two zero Float64 draws in a row: a tail draw is 3.44
// plus at most sqrt(2·ln 2⁶³), about 9.35.
const maxNormalDraw = 13

// MaxBase bounds the baseline of every link NewLink draws: the utility at
// the antipode plus the last mile at its largest draw.
func (m *Model) MaxBase() time.Duration {
	lastMileMs := math.Exp(m.lastMileMu + m.lastMileSigma*maxNormalDraw)
	return m.params.Utility(math.Pi*geo.EarthRadiusMeters) + time.Duration(lastMileMs*float64(time.Millisecond))
}

// NewLinkWithBase creates a link with an explicit congestion-free RTT,
// bypassing geography. Used by tests and by trace-driven topologies.
func (m *Model) NewLinkWithBase(base time.Duration) Link {
	if base < 0 {
		base = 0
	}
	return Link{model: m, base: base}
}

// Base returns the congestion-free round-trip time of the link.
func (l Link) Base() time.Duration { return l.base }

// maxWobbleSigma truncates the Gaussian congestion wobble at ±4σ. The
// truncation is statistically invisible (|z|>4 is ~6e-5 of draws, and the
// tail mass moved is far below the Pareto spike term) but it bounds the
// sample range: every RTT sample is at least
// base·(1 − wobbleFrac·maxWobbleSigma). The clamp shapes every sampled
// delay, so changing it changes every simulation output byte.
const maxWobbleSigma = 4.0

// SampleRTT draws one measured round-trip time: the baseline plus
// congestion noise. Always positive.
func (l Link) SampleRTT(r *rand.Rand) time.Duration {
	m := l.model
	ms := float64(l.base) / float64(time.Millisecond)
	if r.Float64() < m.spikeProb {
		ms += paretoMs(r, m.spikeXmMs, m.spikeAlpha)
	} else {
		z := r.NormFloat64()
		if z > maxWobbleSigma {
			z = maxWobbleSigma
		} else if z < -maxWobbleSigma {
			z = -maxWobbleSigma
		}
		ms += ms * m.wobbleFrac * z
	}
	if ms < m.minSampleMs {
		ms = m.minSampleMs
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// SampleOneWay draws a one-way delay: half a sampled RTT. The simulator
// uses this for message delivery on the link.
func (l Link) SampleOneWay(r *rand.Rand) time.Duration {
	return l.SampleRTT(r) / 2
}

func paretoMs(r *rand.Rand, xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
