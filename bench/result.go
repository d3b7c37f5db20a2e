package main

import (
	"sort"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
)

// value is one reported number with its unit, as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered name → value set (order = schema order, for
// printing; JSON output is a plain object).
type metrics struct {
	names []string
	vals  map[string]value
}

func newMetrics() *metrics { return &metrics{vals: map[string]value{}} }

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = value{v, unit}
}

func (m *metrics) get(name string) float64 { return m.vals[name].Value }

// pick returns the subset named by defs, in that order, with the
// schema's units; a metric the run did not produce is reported missing.
func (m *metrics) pick(defs []metricDef) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{v.Value, d.Unit}
	}
	return out, missing
}

// observedLive reports whether the workload's clients watch each job as
// it runs, so that their receipt of the terminal event is part of what
// the user waits for. In a burst the client reaches most watches after
// the job has finished, and charging that would time the client's
// sequential watching, not the platform.
func (w workload) observedLive() bool { return w.Burst == 0 }

// completed gathers the latencies of the jobs that reached COMPLETED in
// time, in submit order per client (sample order).
func (r *run) completed() (idx []int, lats []latencies) {
	for i := range r.samples {
		s := &r.samples[i]
		if s.failure != "" {
			continue
		}
		if l, ok := s.latencies(r.w.observedLive()); ok {
			idx = append(idx, i)
			lats = append(lats, l)
		}
	}
	return idx, lats
}

// column extracts one latency from every job, sorted ascending for
// percentile.
func column(lats []latencies, f func(latencies) float64) []float64 {
	out := make([]float64, len(lats))
	for i, l := range lats {
		out[i] = f(l)
	}
	sort.Float64s(out)
	return out
}

// readP50 is the median duration of one kind of client-timed read.
func (r *run) readP50(kind string) time.Duration {
	var ds []float64
	for c := range r.reads {
		for _, op := range r.reads[c] {
			if op.kind == kind {
				ds = append(ds, float64(op.dur))
			}
		}
	}
	sort.Float64s(ds)
	return time.Duration(percentile(ds, 50))
}

// endToEndMetrics turns one measured phase into the numbers a user of
// the platform would see. setup is the median set-up time of the run.
func (r *run) endToEndMetrics(setup time.Duration) *metrics {
	m := newMetrics()
	_, lats := r.completed()
	n := len(lats)
	jobs := float64(n)
	start := column(lats, func(l latencies) float64 { return l.start })
	done := column(lats, func(l latencies) float64 { return l.done })

	m.set("setup_s", setup.Seconds(), "s")
	m.set("jobs_per_s", ratio(jobs, r.wall.Seconds()), "jobs/s")
	m.set("start_p50_ms", percentile(start, 50)*1e3, "ms")
	m.set("start_p95_ms", percentile(start, 95)*1e3, "ms")
	m.set("done_p50_ms", percentile(done, 50)*1e3, "ms")
	m.set("done_p95_ms", percentile(done, 95)*1e3, "ms")
	m.set("cpu_ms_per_job", ratio(r.cpu.Seconds()*1e3, jobs), "ms")
	m.set("allocs_per_job", ratio(float64(r.mallocs), jobs), "count")
	m.set("alloc_kb_per_job", ratio(float64(r.bytes)/1024, jobs), "KB")
	m.set("live_kb_per_job", ratio((float64(r.live)-float64(r.liveBefore))/1024, jobs), "KB")
	m.set("status_p50_us", float64(r.readP50("status"))/1e3, "us")
	m.set("logs_p50_us", float64(r.readP50("logs"))/1e3, "us")
	attempted := len(r.samples)
	m.set("failed_frac", ratio(float64(attempted-n+r.readErrs), float64(attempted)), "ratio")
	return m
}

// medianJobPhases is the lifecycle budget of the median job: the mean
// phase intervals of the jobs whose done latency lies between the 45th
// and 55th percentile. Each job's intervals sum to its done latency, so
// the five rows sum to (nearly) done_p50; what is left is unattributed.
func (r *run) medianJobPhases() (phases [numPhases]float64, doneP50 float64) {
	idx, lats := r.completed()
	if len(lats) == 0 {
		return phases, 0
	}
	done := column(lats, func(l latencies) float64 { return l.done })
	doneP50 = percentile(done, 50)
	lo, hi := percentile(done, 45), percentile(done, 55)
	n := 0
	for k, i := range idx {
		if lats[k].done < lo || lats[k].done > hi {
			continue
		}
		s := &r.samples[i]
		to := s.submit.Add(time.Duration(lats[k].done * float64(time.Second)))
		iv := phaseIntervals(s.history(), s.submit, to)
		for p := range phases {
			phases[p] += iv[p]
		}
		n++
	}
	for p := range phases {
		phases[p] /= float64(n)
	}
	return phases, doneP50
}

// spanP50 is the median of one client span over the completed jobs.
func (r *run) spanP50(span func(*jobSample) time.Duration) time.Duration {
	idx, _ := r.completed()
	ds := make([]float64, len(idx))
	for k, i := range idx {
		ds[k] = float64(span(&r.samples[i]))
	}
	sort.Float64s(ds)
	return time.Duration(percentile(ds, 50))
}

// traceSums walks the sampled product traces: mean lcm.deploy time, and
// etcd.propose count and time per sampled job.
func traceSums(traces []obs.Trace) (deployUS, proposes, proposeUS float64) {
	if len(traces) == 0 {
		return 0, 0, 0
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch s.Name {
		case "lcm.deploy":
			deployUS += float64(s.Duration()) / 1e3
		case "etcd.propose":
			proposes++
			proposeUS += float64(s.Duration()) / 1e3
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, t := range traces {
		if t.Root != nil {
			walk(t.Root)
		}
	}
	n := float64(len(traces))
	return deployUS / n, proposes / n, proposeUS / n
}
