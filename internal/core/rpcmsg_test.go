package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// TestRPCMessageTypesRoundtrip sends one populated value of every RPC
// message type through a real rpc.Server and back, and requires it to
// come back deep-equal. A message type that gains a field the body
// codec does not support fails here rather than on a live call.
func TestRPCMessageTypesRoundtrip(t *testing.T) {
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	history := []StatusEntry{
		{Status: StatusPending, Time: t0, Message: "job submitted"},
		{Status: StatusDeploying, Time: t0.Add(time.Millisecond)},
		{Status: StatusCompleted, Time: t0.Add(time.Second), Message: "done"},
	}
	manifest := Manifest{
		Name: "vgg", User: "alice", Framework: perf.Framework("Caffe"), Model: perf.Model("VGG-16"),
		Command: "train.sh", Learners: 2, GPUsPerLearner: 1, GPUType: perf.GPUType("K80"),
		CPUs: 4, MemoryMB: 8192, BatchSize: 32, Iterations: 300, CheckpointEvery: 100,
		DataBucket: "datasets", DataPrefix: "demo/", ResultBucket: "results", DataCreds: "key",
	}
	rec := tenant.Record{User: "alice", Tier: sched.TierPaid, GPUs: 4}
	span := func(name string, start time.Duration, kids ...*obs.Span) *obs.Span {
		return &obs.Span{Name: name, Start: t0.Add(start), End: t0.Add(start + time.Millisecond), Children: kids}
	}
	msgs := []any{
		SubmitArgs{Manifest: manifest},
		SubmitReply{JobID: "training-000001"},
		JobArgs{JobID: "training-000001"},
		StatusReply{JobID: "training-000001", Status: StatusCompleted, QueuePos: 3, History: history, Degraded: true},
		ListArgs{User: "alice"},
		ListReply{Jobs: []JobRecord{
			{ID: "training-000001", Manifest: manifest, Status: StatusCompleted, History: history},
			{ID: "training-000002", Manifest: manifest, Status: StatusQueued},
		}},
		TenantArgs{User: "alice"},
		TenantReply{Tenant: rec, InUse: 2},
		TenantsReply{Tenants: []tenant.Record{rec, {User: "bob", Tier: sched.TierFree, GPUs: 1}}},
		SetTenantArgs{Tenant: rec},
		LogsArgs{JobID: "training-000001", Follow: true, Search: "loss", FromOffset: 1 << 40},
		LogItem{Line: LogLine{JobID: "training-000001", Learner: 1, Offset: 17, Time: t0, Text: "iter 10 loss 0.5"}},
		WatchArgs{JobID: "training-000001", FromSeq: 2},
		StatusItem{Seq: 2, Entry: history[1]},
		MetricsArgs{},
		MetricsReply{Snapshot: obs.Snapshot{
			Counters: []obs.CounterPoint{{Name: "api.submits", Value: 7}},
			Gauges:   []obs.GaugePoint{{Name: "kube.pods", Value: -1}},
			Histograms: []obs.HistogramPoint{{
				Name: "rpc.roundtrip", Bounds: []float64{0.001, 0.01, 0.1},
				Counts: []uint64{1, 2, 3, 4}, Count: 10, Sum: 0.25,
			}},
		}},
		TraceReply{Trace: obs.Trace{JobID: "training-000001", Root: span("job", 0,
			span("PENDING", 0),
			span("DEPLOYING", time.Millisecond, span("sched.bind", time.Millisecond), span("lcm.deploy", 2*time.Millisecond)),
		)}},
	}

	srv := rpc.NewServer()
	for _, m := range msgs {
		srv.Register(reflect.TypeOf(m).Name(), m, func(_ context.Context, arg any) (any, error) {
			return arg, nil
		})
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, m := range msgs {
		name := reflect.TypeOf(m).Name()
		reply := reflect.New(reflect.TypeOf(m))
		if err := conn.Call(context.Background(), name, m, reply.Interface()); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := reply.Elem().Interface(); !reflect.DeepEqual(got, m) {
			t.Errorf("%s roundtrip:\n got %+v\nwant %+v", name, got, m)
		}
	}
}
