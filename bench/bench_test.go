package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/obs"
)

// These tests pin the benchmark's own arithmetic. None boots a platform.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile(one sample, 95) = %v, want 7", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the choice.
		if got := highestPercentile(c.n); c.n >= 20 && c.n*(1000-int(math.Round(got*10))) < 10*1000 {
			t.Errorf("highestPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(ten); !near(m, 5.5) {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
	if s := spread(ten); !near(s, 1.0) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 7})
	if !near(q1, 3) || !near(q3, 6) {
		t.Errorf("quartiles(2,4,4,5,7) = %v, %v; want 3, 6", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3}); q1 != 3 || q3 != 3 {
		t.Errorf("quartiles(one sample) = %v, %v; want 3, 3", q1, q3)
	}
}

func TestBoundComparisonFollowsDirection(t *testing.T) {
	// lower is better: +10% is worse by 0.10
	if w := worseBy(100, 110, true); !near(w, 0.10) {
		t.Errorf("worseBy(100→110, lower better) = %v", w)
	}
	if withinBound(100, 110, 0.08, true) {
		t.Error("+10% latency passed an 8% bound")
	}
	if !withinBound(100, 107, 0.08, true) {
		t.Error("+7% latency failed an 8% bound")
	}
	// higher is better: −10% throughput is worse by 0.10, +10% is an improvement
	if w := worseBy(500, 450, false); !near(w, 0.10) {
		t.Errorf("worseBy(500→450, higher better) = %v", w)
	}
	if withinBound(500, 450, 0.08, false) {
		t.Error("−10% throughput passed an 8% bound")
	}
	if !withinBound(500, 550, 0.08, false) || !withinBound(100, 50, 0.08, true) {
		t.Error("an improvement failed its bound")
	}
}

func snapshot(name string, counts []uint64, sum float64, gauge int64) obs.Snapshot {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return obs.Snapshot{
		Histograms: []obs.HistogramPoint{{Name: name, Bounds: []float64{1e-5, 1e-4, 1e-3}, Counts: counts, Count: n, Sum: sum}},
		Gauges:     []obs.GaugePoint{{Name: "etcd.commands", Value: gauge}},
	}
}

func TestHistogramDeltaPerJob(t *testing.T) {
	before := snapshot("mongo.op_latency", []uint64{10, 5, 0, 0}, 0.001, 100)
	after := snapshot("mongo.op_latency", []uint64{110, 25, 10, 5}, 0.051, 700)
	d := histogramDelta(before, after, "mongo.op_latency")
	if d.Count != 135 || !near(d.Sum, 0.050) {
		t.Fatalf("delta count %d sum %v, want 135 and 0.050", d.Count, d.Sum)
	}
	if want := []uint64{100, 20, 10, 5}; len(d.Counts) != 4 || d.Counts[0] != want[0] || d.Counts[1] != want[1] || d.Counts[2] != want[2] || d.Counts[3] != want[3] {
		t.Fatalf("delta buckets %v, want %v", d.Counts, want)
	}
	ops, busy := perJob(d, 50)
	if !near(ops, 2.7) || !near(busy, 1000) {
		t.Errorf("perJob = %v ops, %v us; want 2.7 ops, 1000 us", ops, busy)
	}
	if after.Histograms[0].Counts[0] != 110 {
		t.Error("histogramDelta modified its input")
	}
	// Absent before: counts from zero. Absent after: empty.
	if d := histogramDelta(obs.Snapshot{}, after, "mongo.op_latency"); d.Count != 150 {
		t.Errorf("delta from an empty snapshot has count %d, want 150", d.Count)
	}
	if d := histogramDelta(before, obs.Snapshot{}, "mongo.op_latency"); d.Count != 0 || d.Sum != 0 {
		t.Errorf("delta to an empty snapshot = %+v, want empty", d)
	}
	if ops, busy := perJob(d, 0); ops != 0 || busy != 0 {
		t.Error("perJob with zero jobs must be 0")
	}
	if g := gaugeDelta(before, after, "etcd.commands"); g != 600 {
		t.Errorf("gaugeDelta = %v, want 600", g)
	}
}

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func history(steps ...any) []entry {
	var h []entry
	for i := 0; i < len(steps); i += 2 {
		h = append(h, entry{status: steps[i].(core.JobStatus), at: at(steps[i+1].(int))})
	}
	return h
}

func TestPhaseIntervalsPartitionTheLifetime(t *testing.T) {
	full := history(core.StatusQueued, 1, core.StatusPending, 5, core.StatusDeploying, 6,
		core.StatusDownloading, 9, core.StatusProcessing, 10, core.StatusStoring, 12, core.StatusCompleted, 13)
	got := phaseIntervals(full, at(0), at(15))
	want := [numPhases]float64{0.005, 0.001, 0.003, 0.001, 0.005}
	sum := 0.0
	for p := range got {
		if !near(got[p], want[p]) {
			t.Errorf("full history: %s = %v, want %v", phaseNames[p], got[p], want[p])
		}
		sum += got[p]
	}
	if !near(sum, 0.015) {
		t.Errorf("phases sum to %v, want the whole 15 ms", sum)
	}
}

func TestPhaseIntervalsWithSkippedStatuses(t *testing.T) {
	// The sampler missed PROCESSING and STORING: DOWNLOADING runs to
	// COMPLETED, and no time may be lost or counted twice.
	skipped := history(core.StatusPending, 0, core.StatusDeploying, 2, core.StatusDownloading, 4, core.StatusCompleted, 9)
	got := phaseIntervals(skipped, at(0), at(9))
	want := [numPhases]float64{0, 0.002, 0.002, 0.005, 0}
	for p := range got {
		if !near(got[p], want[p]) {
			t.Errorf("skipped statuses: %s = %v, want %v", phaseNames[p], got[p], want[p])
		}
	}
	// DEPLOYING skipped too: its time lands on PENDING, the status the
	// job was in.
	got = phaseIntervals(history(core.StatusPending, 0, core.StatusDownloading, 4, core.StatusCompleted, 5), at(0), at(5))
	if !near(got[phasePending], 0.004) || got[phaseDeploying] != 0 || !near(got[phaseDownloading], 0.001) {
		t.Errorf("DEPLOYING skipped: %v", got)
	}
	if got := phaseIntervals(nil, at(0), at(5)); got != ([numPhases]float64{}) {
		t.Errorf("empty history: %v, want zeros", got)
	}
}

func TestLatenciesFromWatchedHistory(t *testing.T) {
	s := jobSample{submit: at(0), seenEnd: at(11)}
	for _, e := range history(core.StatusQueued, 1, core.StatusPending, 3, core.StatusDeploying, 4,
		core.StatusDownloading, 6, core.StatusStoring, 8, core.StatusCompleted, 10) {
		s.add(core.StatusEntry{Status: e.status, Time: e.at})
	}
	l, ok := s.latencies(true)
	if !ok || !near(l.queue, 0.003) || !near(l.start, 0.008) || !near(l.done, 0.011) || !near(l.lag, 0.001) {
		t.Errorf("observed live: %+v ok=%v", l, ok)
	}
	// In a burst the client's late look at the stream is not charged.
	if l, _ := s.latencies(false); !near(l.done, 0.010) {
		t.Errorf("burst done = %v, want 0.010", l.done)
	}
	if err := s.checkChain(); err != nil {
		t.Errorf("legal chain rejected: %v", err)
	}
}

func TestCheckChainRejectsBadHistories(t *testing.T) {
	mk := func(h []entry) *jobSample {
		s := &jobSample{id: "training-000001"}
		for _, e := range h {
			s.add(core.StatusEntry{Status: e.status, Time: e.at})
		}
		return s
	}
	bad := map[string][]entry{
		"backwards":      history(core.StatusPending, 0, core.StatusProcessing, 1, core.StatusDownloading, 2, core.StatusCompleted, 3),
		"duplicate":      history(core.StatusPending, 0, core.StatusDeploying, 1, core.StatusDeploying, 1, core.StatusCompleted, 3),
		"not terminal":   history(core.StatusPending, 0, core.StatusDeploying, 1),
		"failed":         history(core.StatusPending, 0, core.StatusFailed, 1),
		"time backwards": history(core.StatusPending, 5, core.StatusCompleted, 1),
		"empty":          nil,
	}
	for name, h := range bad {
		if err := mk(h).checkChain(); err == nil {
			t.Errorf("%s history passed the gate", name)
		}
	}
	good := mk(history(core.StatusPending, 0, core.StatusDeploying, 1, core.StatusCompleted, 2))
	durable := []core.StatusEntry{{Status: core.StatusPending, Time: at(0)}, {Status: core.StatusDeploying, Time: at(1)}, {Status: core.StatusCompleted, Time: at(2)}}
	if err := good.matchesHistory(durable); err != nil {
		t.Errorf("identical histories differ: %v", err)
	}
	if err := good.matchesHistory(durable[:2]); err == nil {
		t.Error("a watch that delivered an extra transition matched")
	}
	durable[1].Time = at(7)
	if err := good.matchesHistory(durable); err == nil {
		t.Error("a different timestamp matched")
	}
}

func TestJobCountsAreWholeBursts(t *testing.T) {
	for _, w := range workloads {
		for _, scale := range []float64{1, 10.0 / 15, 0.05, 0.0001} {
			n := w.jobCount(scale)
			unit := clients
			if w.Burst > 0 {
				unit *= w.Burst
			}
			if n < unit || n%unit != 0 {
				t.Errorf("%s at scale %v: %d jobs is not a whole number of %d", w.Name, scale, n, unit)
			}
		}
		if n := w.jobCount(1); n != w.whole(float64(w.Jobs)) {
			t.Errorf("%s: scale 1 gives %d jobs", w.Name, n)
		}
	}
}

// TestSchema checks the program's own metric tables and the checked-in
// BENCHMARK.json against the driver's contract and against each other.
// benchmarkFile is BENCHMARK.json, key for key.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a benchmark file against the driver's contract.
func (bf benchmarkFile) validate() error {
	if n := len(bf.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range bf.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		e2e := i < len(bf.EndToEnd)
		if e2e && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if !e2e && m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s carries a bound", m.Name)
		}
		if m.Name == "setup_s" && e2e && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("no end-to-end setup_s [s, lower]")
	}
	return nil
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // the driver wants exactly these keys
	return bf, dec.Decode(&bf)
}

func TestSchema(t *testing.T) {
	prog := benchmarkFile{
		RunSeconds: 10, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		prog.Workloads = append(prog.Workloads, w.workloadDef)
	}
	if err := prog.validate(); err != nil {
		t.Fatalf("the program's metric tables: %v", err)
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.validate(); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	same := func(kind string, file, table []metricDef, bounds bool) {
		if len(file) != len(table) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(file), kind, len(table))
			return
		}
		for i, d := range table {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, d)
			}
			if bounds && f.Bound != d.Bound {
				t.Errorf("%s: BENCHMARK.json bounds it at %v, -agree uses %v", d.Name, f.Bound, d.Bound)
			}
		}
	}
	same("end-to-end", bf.EndToEnd, endToEnd, true)
	same("per-layer", bf.PerLayer, perLayer, false)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i] != w.workloadDef {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, bf.Workloads[i], w.workloadDef)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

func TestValidateRejectsContractViolations(t *testing.T) {
	ok := func() benchmarkFile {
		return benchmarkFile{
			RunSeconds: 10,
			Workloads:  []workloadDef{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:   []metricDef{{"setup_s", "s", "lower", 0.25}, {"jobs_per_s", "jobs/s", "higher", 0.08}},
			PerLayer:   []metricDef{{Name: "etcd.busy_us_per_job", Unit: "us", Better: "lower"}},
		}
	}
	if err := ok().validate(); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	breakIt := map[string]func(*benchmarkFile){
		"one workload":       func(b *benchmarkFile) { b.Workloads = b.Workloads[:1] },
		"bound above 0.25":   func(b *benchmarkFile) { b.EndToEnd[1].Bound = 0.3 },
		"end to end unbound": func(b *benchmarkFile) { b.EndToEnd[1].Bound = 0 },
		"layer with a bound": func(b *benchmarkFile) { b.PerLayer[0].Bound = 0.1 },
		"bad name":           func(b *benchmarkFile) { b.PerLayer[0].Name = "etcd busy" },
		"duplicate name":     func(b *benchmarkFile) { b.PerLayer[0].Name = "jobs_per_s" },
		"bad unit":           func(b *benchmarkFile) { b.PerLayer[0].Unit = "µs" },
		"bad direction":      func(b *benchmarkFile) { b.PerLayer[0].Better = "faster" },
		"no setup_s":         func(b *benchmarkFile) { b.EndToEnd[0].Name = "boot_s" },
		"run_seconds":        func(b *benchmarkFile) { b.RunSeconds = 61 },
		"long why":           func(b *benchmarkFile) { b.Workloads[0].Why = string(make([]byte, 201)) },
	}
	for name, f := range breakIt {
		b := ok()
		f(&b)
		if err := b.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
