// Package obs is the platform's unified observability layer: one
// registry of typed instruments (counters, gauges, fixed-bucket latency
// histograms) shared by every subsystem, plus per-job trace spans (see
// trace.go) and a Prometheus text exposition of everything (prom.go).
//
// # Naming convention
//
// Every instrument name is dotted "subsystem.name": the segment before
// the first dot is the owning subsystem (etcd, sched, kube, tenant,
// mongo, commitlog, rpc, api, lcm, guardian, watch, ...), the remainder
// is the measurement, with underscores separating words WITHIN the
// measurement ("etcd.propose_apply", "watch.degraded_refills",
// "guardian.deploy_retries"). Dots never appear inside the measurement
// part. The Prometheus exposition mangles names mechanically
// ("etcd.propose_apply" -> "ffdl_etcd_propose_apply"), so the convention
// keeps scraped names collision-free.
//
// # Cost model
//
// Instrument handles are resolved once, at subsystem construction; hot
// paths touch only the returned pointers. Every instrument method is
// nil-receiver safe and a nil receiver does nothing — a subsystem built
// without a registry (observability disabled) carries nil handles and
// its hot paths run instrumentation-free, allocation-free (pinned by
// TestObsAllocBudget). Enabled instruments are single atomic updates.
//
// Histograms observe plain float64 values (seconds for latencies,
// raw counts for sizes). Callers measure durations with their own
// sim.Clock, so under sim.FakeClock a histogram of queue delays or
// scheduling passes records virtual time exactly.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value integer instrument.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBuckets is the default fixed bucket layout for latency
// histograms, in seconds: 10µs to 1h, roughly 1-2.5-5 per decade, with
// coarse tail buckets for queue delays measured in virtual minutes.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30, 60, 120, 300, 900, 3600,
}

// CountBuckets is the default layout for size/count histograms
// (batch sizes, nodes examined per pass): powers of two up to 4096.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Histogram is a fixed-bucket histogram. Observations are float64
// values in the unit the bucket bounds are expressed in; the last
// implicit bucket is +Inf. Updates are lock-free atomics.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds. No-op on nil.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Collector is a snapshot-time callback mirroring externally owned
// state (a subsystem's Stats() struct) into gauges. Collectors run only
// when Snapshot is taken, so they add zero hot-path cost.
type Collector func(set func(name string, v int64))

// Registry is the get-or-create home of all instruments. The zero of
// *Registry (nil) is a valid "observability off" registry: every lookup
// returns a nil instrument.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram (LatencyBuckets),
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, LatencyBuckets)
}

// HistogramWith returns the named histogram with the given bucket upper
// bounds (which must be sorted ascending), creating it on first use.
// An existing histogram keeps its original bounds.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a snapshot-time gauge collector.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// CounterValue reads a counter without creating it (0 when absent).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// CounterPoint / GaugePoint / HistogramPoint are the exported, codec-
// friendly snapshot shapes (they cross the RPC wire in API.Metrics).
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge sample.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramPoint is one histogram's full state: per-bucket cumulative-
// free counts (Counts[i] observations fell in (Bounds[i-1], Bounds[i]];
// the final entry is the +Inf overflow), total count and value sum.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the winning bucket, the standard fixed-bucket
// estimator. Returns 0 on an empty histogram; observations in the +Inf
// bucket clamp to the largest finite bound.
func (h HistogramPoint) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			// Position of the rank within this bucket's count.
			inBucket := rank - float64(cum-c)
			frac := inBucket / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time view of every instrument, sorted by name
// — the payload behind GET /v1/metrics and ffdl-cli metrics.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Counter finds a counter value by name (0 when absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge finds a gauge value by name (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram finds a histogram point by name.
func (s Snapshot) Histogram(name string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Snapshot captures every instrument plus all collector-mirrored
// gauges. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	var snap Snapshot
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterPoint{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		p := HistogramPoint{
			Name:   h.name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			p.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, p)
	}
	// Collector gauges: transient, snapshot-time only.
	for _, collect := range collectors {
		collect(func(name string, v int64) {
			snap.Gauges = append(snap.Gauges, GaugePoint{Name: name, Value: v})
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}
