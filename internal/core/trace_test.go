package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
)

// TestJobTraceMatchesHistory pins the trace surface's core contract: a
// completed job's span tree is causally ordered (one phase child per
// status-history entry, each closing exactly where the next opens) and
// the root span's duration equals the submit→COMPLETED wall time
// recorded in the durable status history — both are written from the
// same clock reads.
func TestJobTraceMatchesHistory(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	hist := reply.History
	tr, err := c.Trace(context.Background(), jobID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.JobID != jobID || tr.Root == nil {
		t.Fatalf("trace = %+v, want root for %s", tr, jobID)
	}

	// Root covers submit→COMPLETED exactly.
	last := hist[len(hist)-1]
	if !tr.Root.Start.Equal(hist[0].Time) {
		t.Fatalf("root starts %v, history starts %v", tr.Root.Start, hist[0].Time)
	}
	if !tr.Root.End.Equal(last.Time) {
		t.Fatalf("root ends %v, history ends %v", tr.Root.End, last.Time)
	}
	if got, want := tr.Root.Duration(), last.Time.Sub(hist[0].Time); got != want {
		t.Fatalf("root duration %v, history wall time %v", got, want)
	}

	// One phase child per history entry, same statuses, contiguous:
	// each phase ends exactly where the next begins.
	if len(tr.Root.Children) != len(hist) {
		t.Fatalf("trace has %d phases, history has %d entries", len(tr.Root.Children), len(hist))
	}
	for i, ph := range tr.Root.Children {
		if ph.Name != string(hist[i].Status) {
			t.Fatalf("phase %d = %q, history says %q", i, ph.Name, hist[i].Status)
		}
		if !ph.Start.Equal(hist[i].Time) {
			t.Fatalf("phase %q starts %v, history entry at %v", ph.Name, ph.Start, hist[i].Time)
		}
		if i+1 < len(tr.Root.Children) && !ph.End.Equal(tr.Root.Children[i+1].Start) {
			t.Fatalf("phase %q ends %v but next phase starts %v", ph.Name, ph.End, tr.Root.Children[i+1].Start)
		}
	}

	// The hot paths recorded their sub-operations: the LCM deploy, at
	// least one job-keyed coordination write, and a scheduler binding.
	subs := map[string]int{}
	for _, ph := range tr.Root.Children {
		for _, sub := range ph.Children {
			name := sub.Name
			if strings.HasPrefix(name, "sched.bind") {
				name = "sched.bind"
			}
			subs[name]++
			if sub.End.Before(sub.Start) {
				t.Fatalf("sub-span %q ends before it starts", sub.Name)
			}
		}
	}
	for _, want := range []string{"lcm.deploy", "etcd.propose", "sched.bind"} {
		if subs[want] == 0 {
			t.Fatalf("no %q sub-span recorded (got %v)", want, subs)
		}
	}

	// The Chrome export is valid trace-event JSON laid out from ts 0.
	buf, err := tr.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("ChromeTrace output not JSON: %v", err)
	}
	if len(events) < len(hist)+1 {
		t.Fatalf("ChromeTrace emitted %d events, want >= %d", len(events), len(hist)+1)
	}
	if ts, ok := events[0]["ts"].(float64); !ok || ts != 0 {
		t.Fatalf("root event ts = %v, want 0", events[0]["ts"])
	}
}

// TestTraceFallsBackToHistory: a DisableObs platform has no live
// tracer, so the trace endpoint reconstructs the phase tree from the
// job's status history — the root duration contract still holds.
func TestTraceFallsBackToHistory(t *testing.T) {
	p := newTestPlatform(t, func(cfg *Config) { cfg.DisableObs = true })
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	hist := reply.History
	tr, err := c.Trace(context.Background(), jobID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.Root == nil || len(tr.Root.Children) != len(hist) {
		t.Fatalf("fallback trace = %+v, want %d phases", tr.Root, len(hist))
	}
	if got, want := tr.Root.Duration(), hist[len(hist)-1].Time.Sub(hist[0].Time); got != want {
		t.Fatalf("fallback root duration %v, history wall time %v", got, want)
	}
}

// TestTraceHangsSubSpansUnderPhases: the trace builder nests each
// sub-span under the phase it started in, drops one that starts after
// the terminal entry, and gives a job the tracer evicted every phase.
func TestTraceHangsSubSpansUnderPhases(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	hist := []StatusEntry{
		{Status: StatusPending, Time: at(0)},
		{Status: StatusDeploying, Time: at(10)},
		{Status: StatusProcessing, Time: at(20)},
		{Status: StatusCompleted, Time: at(50)},
	}
	tr := obs.NewTracer(1)
	tr.Sub("j1", "lcm.deploy", at(2), at(12)) // outlives PENDING, still its child
	tr.Event("j1", "sched.bind learner-0", at(10))
	tr.Sub("j1", "etcd.propose", at(30), at(31))
	tr.Sub("j1", "etcd.propose", at(51), at(52)) // teardown, after COMPLETED

	trace := traceFromHistory("j1", hist, tr.Subs("j1"))
	if !trace.Root.Start.Equal(at(0)) || !trace.Root.End.Equal(at(50)) {
		t.Fatalf("root spans %v..%v, want the history's %v..%v", trace.Root.Start, trace.Root.End, at(0), at(50))
	}
	var got []string
	for _, ph := range trace.Root.Children {
		names := []string{}
		for _, sub := range ph.Children {
			names = append(names, sub.Name)
		}
		got = append(got, ph.Name+fmt.Sprint(names))
	}
	want := "[PENDING[lcm.deploy] DEPLOYING[sched.bind learner-0] PROCESSING[etcd.propose] COMPLETED[]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("phases = %v, want %v", got, want)
	}

	tr.Event("j2", "sched.bind learner-0", at(0)) // evicts j1
	evicted := traceFromHistory("j1", hist, tr.Subs("j1"))
	if len(evicted.Root.Children) != len(hist) || !evicted.Root.End.Equal(at(50)) {
		t.Fatalf("evicted job's trace = %+v, want all %d phases", evicted.Root, len(hist))
	}
	for _, ph := range evicted.Root.Children {
		if len(ph.Children) != 0 {
			t.Fatalf("evicted job's phase %s has sub-spans %+v", ph.Name, ph.Children)
		}
	}
}

// TestMetricsSnapshotAndProm: after a completed job the registry
// snapshot served over the API carries the product counters and the
// hot-path histograms, and renders as Prometheus text exposition.
func TestMetricsSnapshotAndProm(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, name := range []string{"mongo.op_latency", "etcd.propose_apply", "sched.pass", "commitlog.append", "rpc.roundtrip"} {
		h, ok := snap.Histogram(name)
		if !ok || h.Count == 0 {
			t.Fatalf("histogram %q empty after a completed job (ok=%v count=%d)", name, ok, h.Count)
		}
		if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 < 0 || p99 < p50 {
			t.Fatalf("histogram %q quantiles inverted: p50=%v p99=%v", name, p50, p99)
		}
	}
	if len(snap.Counters) == 0 {
		t.Fatal("snapshot has no counters")
	}

	prom := snap.Prom()
	for _, want := range []string{"# TYPE ffdl_mongo_op_latency histogram", "ffdl_etcd_propose_apply", "_total"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("Prom output missing %q:\n%s", want, prom)
		}
	}

	// The trace endpoint and the metrics endpoint share types with the
	// obs package — the snapshot round-trips through the RPC layer.
	var _ obs.Snapshot = snap
}
