package main

import (
	"sort"
	"time"
)

// perLayer is the schema of the traced run: group A is taken in situ
// from the workload (client spans, history timestamps, deltas of the
// product's own counters and histograms), group B are the isolated
// probes of probes.go, and the budget rows multiply the two. Layers are
// this repository's packages.
var perLayer = append(append([]metricDef{
	// core: client spans around calls into the API
	{Name: "core.api.submit_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.api.watch_open_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.watch.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.queue_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.list_p50_ms", Unit: "ms", Better: "lower"},
	// core: the median job's lifecycle budget, from history timestamps
	{Name: "core.phase.queued_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.pending_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.deploying_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.downloading_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.finishing_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.drift_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.start_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.done_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.failed_frac", Unit: "ratio", Better: "lower"},
	// core: the product tracer, on every 20th job
	{Name: "core.trace.lcm_deploy_us", Unit: "us", Better: "lower"},
	{Name: "core.trace.etcd_proposes_per_job", Unit: "count", Better: "lower"},
	{Name: "core.trace.etcd_propose_us_per_job", Unit: "us", Better: "lower"},
	{Name: "core.durable.reopen_s", Unit: "s", Better: "lower"},
	{Name: "rpc.calls_per_job", Unit: "count", Better: "lower"},
	{Name: "rpc.busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "rpc.lost_replies", Unit: "count", Better: "lower"},
	{Name: "mongo.ops_per_job", Unit: "count", Better: "lower"},
	{Name: "mongo.busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "etcd.proposals_per_job", Unit: "count", Better: "lower"},
	{Name: "etcd.busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "etcd.cmds_per_entry", Unit: "count", Better: "higher"},
	{Name: "etcd.entries_sent_per_job", Unit: "count", Better: "lower"},
	{Name: "commitlog.appends_per_job", Unit: "count", Better: "lower"},
	{Name: "commitlog.busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "commitlog.compactions", Unit: "count", Better: "lower"},
	{Name: "commitlog.disk_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "kube.sched_passes_per_job", Unit: "count", Better: "lower"},
	{Name: "kube.sched_busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "kube.nodes_examined_per_pod", Unit: "count", Better: "lower"},
	{Name: "kube.reconciles_per_job", Unit: "count", Better: "lower"},
	{Name: "kube.reconcile_busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "kube.events_dropped", Unit: "count", Better: "lower"},
	{Name: "tenant.wakes_per_job", Unit: "count", Better: "lower"},
	{Name: "tenant.passes_per_job", Unit: "count", Better: "lower"},
	{Name: "tenant.queue_delay_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tenant.preempted", Unit: "count", Better: "lower"},
	{Name: "resilience.retries", Unit: "count", Better: "lower"},
	{Name: "resilience.shed", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_kjob", Unit: "ms", Better: "lower"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}, probeDefs()...), budgetDefs...)

// budgetDefs are the first, external cut of "the layer numbers add up":
// operations per job in situ times the probe's cost per operation, to
// be read beside cpu_ms_per_job.
var budgetDefs = []metricDef{
	{Name: "budget.rpc_us_per_job", Unit: "us", Better: "lower"},
	{Name: "budget.mongo_us_per_job", Unit: "us", Better: "lower"},
	{Name: "budget.etcd_us_per_job", Unit: "us", Better: "lower"},
	{Name: "budget.commitlog_us_per_job", Unit: "us", Better: "lower"},
	{Name: "budget.cpu_us_per_job", Unit: "us", Better: "lower"},
}

// layerMetrics computes group A from a finished traced run. untracedRate
// is jobs_per_s of the same workload's untraced run in this process;
// reopenS and goroutines are measured after the platform stopped.
func (r *run) layerMetrics(m *metrics, untracedRate float64, reopenS float64, goroutines int) {
	idx, lats := r.completed()
	jobs := len(lats)
	done := column(lats, func(l latencies) float64 { return l.done })
	start := column(lats, func(l latencies) float64 { return l.start })
	lag := column(lats, func(l latencies) float64 { return l.lag })

	submit := r.spanP50(func(s *jobSample) time.Duration { return s.submitDone.Sub(s.submit) })
	open := r.spanP50(func(s *jobSample) time.Duration { return s.watchOpen.Sub(s.watchStart) })
	m.set("core.api.submit_p50_us", float64(submit)/1e3, "us")
	m.set("core.api.watch_open_p50_us", float64(open)/1e3, "us")
	m.set("core.watch.lag_p50_us", percentile(lag, 50)*1e6, "us")
	queue := column(lats, func(l latencies) float64 { return l.queue })
	m.set("core.queue_p50_ms", percentile(queue, 50)*1e3, "ms")
	m.set("core.list_p50_ms", float64(r.readP50("list"))/1e6, "ms")

	phases, doneP50 := r.medianJobPhases()
	sum := 0.0
	for p, v := range phases {
		m.set("core.phase."+phaseNames[p]+"_ms", v*1e3, "ms")
		sum += v
	}
	m.set("core.phase.unattributed_ms", (doneP50-sum)*1e3, "ms")

	// Drift: per-job cost grows with the tables. Compare the last and
	// first quarter of the jobs in submit order (idx is in sample order,
	// one client after the other).
	order := make([]int, len(idx))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		return r.samples[idx[order[a]]].submit.Before(r.samples[idx[order[b]]].submit)
	})
	quarter := func(part []int) float64 {
		vs := make([]float64, len(part))
		for i, k := range part {
			vs[i] = lats[k].done
		}
		return median(vs)
	}
	q := len(order) / 4
	m.set("core.drift_ratio", ratio(quarter(order[len(order)-q:]), quarter(order[:q])), "ratio")
	// The tail is the highest percentile the sample count supports,
	// capped at p99.
	tail := highestPercentile(jobs)
	if tail > 99 {
		tail = 99
	}
	m.set("core.start_p99_ms", percentile(start, tail)*1e3, "ms")
	m.set("core.done_p99_ms", percentile(done, tail)*1e3, "ms")
	attempted := len(r.samples)
	m.set("core.failed_frac", ratio(float64(attempted-jobs+r.readErrs), float64(attempted)), "ratio")

	deployUS, proposes, proposeUS := traceSums(r.traces)
	m.set("core.trace.lcm_deploy_us", deployUS, "us")
	m.set("core.trace.etcd_proposes_per_job", proposes, "count")
	m.set("core.trace.etcd_propose_us_per_job", proposeUS, "us")
	m.set("core.durable.reopen_s", reopenS, "s")

	b, a := r.snapBefore, r.snap
	hist := func(name string) (ops, busy float64) {
		return perJob(histogramDelta(b, a, name), jobs)
	}
	ops, busy := hist("rpc.roundtrip")
	m.set("rpc.calls_per_job", ops, "count")
	m.set("rpc.busy_us_per_job", busy, "us")
	m.set("rpc.lost_replies", float64(r.lostReplies), "count")
	ops, busy = hist("mongo.op_latency")
	m.set("mongo.ops_per_job", ops, "count")
	m.set("mongo.busy_us_per_job", busy, "us")
	ops, busy = hist("etcd.propose_apply")
	m.set("etcd.proposals_per_job", ops, "count")
	m.set("etcd.busy_us_per_job", busy, "us")
	m.set("etcd.cmds_per_entry", ratio(gaugeDelta(b, a, "etcd.commands"), gaugeDelta(b, a, "etcd.entries")), "count")
	m.set("etcd.entries_sent_per_job", ratio(gaugeDelta(b, a, "etcd.entries_sent"), float64(jobs)), "count")
	ops, busy = hist("commitlog.append")
	m.set("commitlog.appends_per_job", ops, "count")
	m.set("commitlog.busy_us_per_job", busy, "us")
	m.set("commitlog.compactions", float64(a.Counter("commitlog.compactions")-b.Counter("commitlog.compactions")), "count")
	diskKB := 0.0
	if r.dataDir != "" {
		diskKB = ratio(float64(dirBytes(r.dataDir))/1024, float64(jobs+r.w.whole(clients*warmupPerClient)))
	}
	m.set("commitlog.disk_kb_per_job", diskKB, "KB")

	ops, busy = hist("sched.pass")
	m.set("kube.sched_passes_per_job", ops, "count")
	m.set("kube.sched_busy_us_per_job", busy, "us")
	m.set("kube.nodes_examined_per_pod", ratio(gaugeDelta(b, a, "sched.nodes_examined"), gaugeDelta(b, a, "sched.pods_bound")), "count")
	ops, busy = hist("kube.reconcile")
	m.set("kube.reconciles_per_job", ops, "count")
	m.set("kube.reconcile_busy_us_per_job", busy, "us")
	m.set("kube.events_dropped", gaugeDelta(b, a, "sched.events_dropped"), "count")

	m.set("tenant.wakes_per_job", ratio(gaugeDelta(b, a, "tenant.wakes"), float64(jobs)), "count")
	m.set("tenant.passes_per_job", ratio(gaugeDelta(b, a, "tenant.passes"), float64(jobs)), "count")
	m.set("tenant.queue_delay_p50_ms", histogramDelta(b, a, "tenant.queue_delay").Quantile(0.5)*1e3, "ms")
	m.set("tenant.preempted", gaugeDelta(b, a, "tenant.preempted"), "count")
	m.set("resilience.retries", float64(a.Counter("resilience.retries")-b.Counter("resilience.retries")), "count")
	m.set("resilience.shed", float64(a.Counter("resilience.shed")-b.Counter("resilience.shed")), "count")

	m.set("runtime.gc_pause_ms_per_kjob", ratio(float64(r.gcPauseNS)/1e6, float64(jobs)/1000), "ms")
	m.set("runtime.num_gc", float64(r.numGC), "count")
	m.set("runtime.heap_peak_mb", float64(r.heapPeak)/(1<<20), "MB")
	m.set("runtime.goroutines_end", float64(goroutines), "count")
	tracedRate := ratio(float64(jobs), r.wall.Seconds())
	m.set("trace_overhead_frac", 1-ratio(tracedRate, untracedRate), "ratio")
}

// budgetMetrics multiplies in-situ operation counts by the probes'
// per-operation cost (the FileStore append probe when the workload's
// logs are on disk).
func budgetMetrics(m *metrics, cpuMSPerJob float64, durable bool) {
	appendProbe := "probe.commitlog.append_mem_us"
	if durable {
		appendProbe = "probe.commitlog.append_file_us"
	}
	m.set("budget.rpc_us_per_job", m.get("rpc.calls_per_job")*m.get("probe.rpc.call_us"), "us")
	m.set("budget.mongo_us_per_job", m.get("mongo.ops_per_job")*m.get("probe.mongo.update_push_us"), "us")
	m.set("budget.etcd_us_per_job", m.get("etcd.proposals_per_job")*m.get("probe.etcd.put_serial_us"), "us")
	m.set("budget.commitlog_us_per_job", m.get("commitlog.appends_per_job")*m.get(appendProbe), "us")
	m.set("budget.cpu_us_per_job", cpuMSPerJob*1e3, "us")
}
