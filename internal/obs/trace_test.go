package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestTracerKeepsSubSpansInOrder(t *testing.T) {
	tr := NewTracer(0)
	t0 := time.Unix(100, 0)
	tr.Sub("j1", "lcm.deploy", t0.Add(12*time.Millisecond), t0.Add(15*time.Millisecond))
	tr.Event("j1", "sched.bind learner-0", t0.Add(20*time.Millisecond))
	tr.Sub("j2", "etcd.propose", t0, t0.Add(time.Millisecond))

	subs := tr.Subs("j1")
	if len(subs) != 2 || subs[0].Name != "lcm.deploy" || subs[1].Name != "sched.bind learner-0" {
		t.Fatalf("j1 sub-spans = %+v, want lcm.deploy then sched.bind", subs)
	}
	if d := subs[0].Duration(); d != 3*time.Millisecond {
		t.Fatalf("lcm.deploy duration = %v, want 3ms", d)
	}
	if !subs[1].Start.Equal(subs[1].End) {
		t.Fatalf("event spans %v..%v, want zero length", subs[1].Start, subs[1].End)
	}
	// A record after the read does not show through the returned view.
	tr.Sub("j1", "etcd.propose", t0.Add(30*time.Millisecond), t0.Add(31*time.Millisecond))
	if len(subs) != 2 || cap(subs) != 2 {
		t.Fatalf("earlier read grew to len %d cap %d", len(subs), cap(subs))
	}
	if n := len(tr.Subs("j1")); n != 3 {
		t.Fatalf("j1 holds %d sub-spans, want 3", n)
	}
	if subs := tr.Subs("ghost"); subs != nil {
		t.Fatalf("unknown job has sub-spans %+v", subs)
	}

	var nilT *Tracer
	nilT.Sub("x", "etcd.propose", t0, t0)
	nilT.Event("x", "sched.bind", t0)
	if nilT.Subs("x") != nil {
		t.Fatal("nil tracer must report no sub-spans")
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(2)
	t0 := time.Unix(0, 0)
	tr.Event("a", "sched.bind", t0)
	tr.Event("b", "sched.bind", t0)
	tr.Event("a", "sched.bind", t0) // a second record does not renew a
	tr.Event("c", "sched.bind", t0) // evicts a
	if subs := tr.Subs("a"); subs != nil {
		t.Fatalf("oldest job not evicted: %+v", subs)
	}
	for _, id := range []string{"b", "c"} {
		if len(tr.Subs(id)) != 1 {
			t.Fatalf("job %s lost its sub-span", id)
		}
	}
	for i := range 10 {
		tr.Event(fmt.Sprint("job-", i), "sched.bind", t0)
	}
	if len(tr.jobs) != 2 || len(tr.order) != 2 {
		t.Fatalf("tracer holds %d jobs in an order of %d, want 2", len(tr.jobs), len(tr.order))
	}
}

func TestChromeTrace(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	trace := Trace{JobID: "j1", Root: &Span{Name: "job j1", Start: at(0), End: at(10), Children: []*Span{
		{Name: "PENDING", Start: at(0), End: at(10), Children: []*Span{
			{Name: "etcd.propose", Start: at(1), End: at(2)},
		}},
		{Name: "COMPLETED", Start: at(10), End: at(10)},
	}}}
	raw, err := trace.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// root + PENDING + COMPLETED + sub-span
	if len(events) != 4 {
		t.Fatalf("chrome events = %d, want 4", len(events))
	}
	root := events[0]
	if root["ph"] != "X" || root["ts"].(float64) != 0 || root["dur"].(float64) != 10000 {
		t.Fatalf("root event = %v", root)
	}
	var sub map[string]any
	for _, e := range events {
		if e["name"] == "etcd.propose" {
			sub = e
		}
	}
	if sub == nil || sub["tid"].(float64) != 2 || sub["ts"].(float64) != 1000 || sub["dur"].(float64) != 1000 {
		t.Fatalf("sub event = %v", sub)
	}
}
