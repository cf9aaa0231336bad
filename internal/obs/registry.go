package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram keeps every duration it observes, under a mutex, and
// computes its quantiles exactly at scrape time. It is meant for series
// with one observation per unit — the units of a sweep, the commits of a
// fleet — not per-message hot paths, which use the Tracer or flat
// counters.
type Histogram struct {
	mu  sync.Mutex
	obs []time.Duration
	sum time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(v time.Duration) {
	h.mu.Lock()
	h.obs = append(h.obs, v)
	h.sum += v
	h.mu.Unlock()
}

// Sum returns the total of every duration observed.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Count returns how many durations were observed.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.obs)
}

// quantile returns the q-th quantile (0 <= q <= 1) of ascending samples
// by linear interpolation between closest ranks, the rule
// measure.Distribution.Percentile uses; 0 if there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return sorted[lo] + time.Duration((rank-float64(lo))*float64(sorted[hi]-sorted[lo]))
}

// quantiles exposed per histogram, ascending.
var histQuantiles = []float64{0.5, 0.9, 0.99}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Metric names follow Prometheus conventions and may
// carry inline labels: `bcbpt_messages_total{command="inv"}`. Lookup is
// mutex-guarded; the returned handles are lock-free atomics, so callers
// resolve them once at setup and update them freely after.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// baseName strips an inline label set: `foo{bar="x"}` → `foo`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel merges an extra label into a possibly-labeled name:
// withLabel(`foo{a="1"}`, `quantile`, `0.5`) → `foo{a="1",quantile="0.5"}`.
func withLabel(name, key, val string) string {
	label := key + `="` + val + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// withSuffix inserts a suffix before an inline label set:
// withSuffix(`foo{a="1"}`, `_sum`) → `foo_sum{a="1"}`.
func withSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name so output is
// deterministic. Histograms render as summaries: quantile series plus
// _sum (seconds) and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type line struct {
		name  string
		value string
	}
	type block struct {
		base  string
		typ   string
		lines []line
	}
	blocks := make(map[string]*block)
	get := func(base, typ string) *block {
		b, ok := blocks[base]
		if !ok {
			b = &block{base: base, typ: typ}
			blocks[base] = b
		}
		return b
	}

	r.mu.Lock()
	for name, c := range r.counters {
		b := get(baseName(name), "counter")
		b.lines = append(b.lines, line{name, strconv.FormatUint(c.Value(), 10)})
	}
	for name, g := range r.gauges {
		b := get(baseName(name), "gauge")
		b.lines = append(b.lines, line{name, strconv.FormatInt(g.Value(), 10)})
	}
	for name, h := range r.hists {
		b := get(baseName(name), "summary")
		h.mu.Lock()
		sorted := slices.Clone(h.obs)
		slices.Sort(sorted)
		for _, q := range histQuantiles {
			b.lines = append(b.lines, line{
				withLabel(name, "quantile", strconv.FormatFloat(q, 'g', -1, 64)),
				formatSeconds(quantile(sorted, q)),
			})
		}
		b.lines = append(b.lines, line{withSuffix(name, "_sum"), formatSeconds(h.sum)})
		b.lines = append(b.lines, line{withSuffix(name, "_count"), strconv.Itoa(len(sorted))})
		h.mu.Unlock()
	}
	r.mu.Unlock()

	ordered := make([]*block, 0, len(blocks))
	for _, b := range blocks {
		ordered = append(ordered, b)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].base < ordered[j].base })
	for _, b := range ordered {
		sort.Slice(b.lines, func(i, j int) bool { return b.lines[i].name < b.lines[j].name })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b.base, b.typ); err != nil {
			return err
		}
		for _, l := range b.lines {
			if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatSeconds renders a duration as decimal seconds, Prometheus's
// base unit for time series.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
