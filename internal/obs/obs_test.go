package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("api.crashes")
	c2 := r.Counter("api.crashes")
	if c1 != c2 {
		t.Fatal("Counter did not return the same instrument for the same name")
	}
	c1.Inc()
	c1.Add(2)
	if got := r.CounterValue("api.crashes"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	g := r.Gauge("sched.queue_depth")
	g.Set(7)
	if g2 := r.Gauge("sched.queue_depth"); g2.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g2.Value())
	}
	if h1, h2 := r.Histogram("rpc.roundtrip"), r.Histogram("rpc.roundtrip"); h1 != h2 {
		t.Fatal("Histogram did not return the same instrument for the same name")
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(5)
	g.Set(9)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.RegisterCollector(func(set func(string, int64)) { set("a", 1) })
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestObsAllocBudget pins the disabled (nil-instrument) hot path at
// zero allocations, and the enabled instruments at zero too — the
// layer's "free when idle" guarantee.
func TestObsAllocBudget(t *testing.T) {
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilT *Tracer
	at := time.Unix(0, 0)
	if n := testing.AllocsPerRun(1000, func() {
		nilC.Inc()
		nilG.Set(3)
		nilH.Observe(0.5)
		nilT.Event("job", "sched.bind", at)
		nilT.Sub("job", "etcd.propose", at, at)
	}); n != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", n)
	}
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.5)
	}); n != 0 {
		t.Fatalf("enabled instruments allocate %.1f per op, want 0", n)
	}
}

// TestHistogramQuantilesUnderFakeClock drives a histogram from
// durations measured on a sim.FakeClock — the way subsystems observe
// virtual-time latencies — and checks the p50/p95/p99 estimates land
// in the right buckets.
func TestHistogramQuantilesUnderFakeClock(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	r := NewRegistry()
	h := r.Histogram("tenant.queue_delay")
	// 90 observations of ~2ms, 9 of ~40ms, 1 of ~80s of virtual time.
	observe := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			start := fc.Now()
			fc.Advance(d)
			h.ObserveDuration(fc.Now().Sub(start))
		}
	}
	observe(2*time.Millisecond, 90)
	observe(40*time.Millisecond, 9)
	observe(80*time.Second, 1)

	snap := r.Snapshot()
	p, ok := snap.Histogram("tenant.queue_delay")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if p.Count != 100 {
		t.Fatalf("count = %d, want 100", p.Count)
	}
	if p50 := p.Quantile(0.50); p50 < 1e-3 || p50 > 2.5e-3 {
		t.Fatalf("p50 = %v, want within the (1ms, 2.5ms] bucket", p50)
	}
	if p95 := p.Quantile(0.95); p95 < 25e-3 || p95 > 50e-3 {
		t.Fatalf("p95 = %v, want within the (25ms, 50ms] bucket", p95)
	}
	if p99 := p.Quantile(0.99); p99 < 25e-3 || p99 > 50e-3 {
		t.Fatalf("p99 = %v, want within the (25ms, 50ms] bucket", p99)
	}
	// The 80s outlier dominates only the very tail.
	if p999 := p.Quantile(0.999); p999 < 60 || p999 > 120 {
		t.Fatalf("p99.9 = %v, want within the (60s, 120s] bucket", p999)
	}
	wantSum := 90*0.002 + 9*0.040 + 80.0
	if diff := p.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", p.Sum, wantSum)
	}
}

// TestHistogramMerge: components that look up one instrument name share
// one histogram, so the snapshot merges their observations; a later
// lookup under another bucket layout gets the existing instrument and
// its layout.
func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("rpc.roundtrip")
	h2 := r.HistogramWith("rpc.roundtrip", CountBuckets)
	for i := 0; i < 50; i++ {
		h1.Observe(0.002)
		h2.Observe(0.040)
	}
	m, ok := r.Snapshot().Histogram("rpc.roundtrip")
	if !ok {
		t.Fatal("rpc.roundtrip missing from the snapshot")
	}
	if m.Count != 100 {
		t.Fatalf("merged count = %d, want 100", m.Count)
	}
	if len(m.Bounds) != len(LatencyBuckets) || m.Bounds[0] != LatencyBuckets[0] {
		t.Fatalf("bounds = %v, want the first lookup's layout", m.Bounds)
	}
	if p50 := m.Quantile(0.50); p50 < 1e-3 || p50 > 2.5e-3 {
		t.Fatalf("merged p50 = %v, want in (1ms, 2.5ms]", p50)
	}
	if p95 := m.Quantile(0.95); p95 < 25e-3 || p95 > 50e-3 {
		t.Fatalf("merged p95 = %v, want in (25ms, 50ms]", p95)
	}
}

// TestPromGolden pins the exact Prometheus text exposition byte-for-
// byte: deterministic ordering, ffdl_ prefix, dot mangling, counter
// _total suffix, cumulative histogram buckets.
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("watch.refills").Add(3)
	r.Counter("api.crashes").Inc()
	r.Gauge("sched.queue_depth").Set(7)
	h := r.HistogramWith("etcd.batch_size", []float64{1, 4, 16})
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(64)
	r.RegisterCollector(func(set func(string, int64)) { set("kube.pods_bound", 12) })

	got := r.Snapshot().Prom()
	want := strings.Join([]string{
		"# TYPE ffdl_api_crashes_total counter",
		"ffdl_api_crashes_total 1",
		"# TYPE ffdl_watch_refills_total counter",
		"ffdl_watch_refills_total 3",
		"# TYPE ffdl_kube_pods_bound gauge",
		"ffdl_kube_pods_bound 12",
		"# TYPE ffdl_sched_queue_depth gauge",
		"ffdl_sched_queue_depth 7",
		"# TYPE ffdl_etcd_batch_size histogram",
		`ffdl_etcd_batch_size_bucket{le="1.0"} 1`,
		`ffdl_etcd_batch_size_bucket{le="4.0"} 3`,
		`ffdl_etcd_batch_size_bucket{le="16.0"} 3`,
		`ffdl_etcd_batch_size_bucket{le="+Inf"} 4`,
		"ffdl_etcd_batch_size_sum 71.0",
		"ffdl_etcd_batch_size_count 4",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("Prometheus exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
