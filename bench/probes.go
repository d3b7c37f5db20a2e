package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/learner"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/nfs"
	"github.com/ffdl/ffdl/internal/objstore"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/tenant"
)

// Group B: isolated probes. Each times one layer's exported API on a
// standalone instance — no platform around it — with a fixed operation
// count, one goroutine unless the name says par2, and reports the median
// of probeBatches batches. They are workload-independent: a later change
// to a layer should move its probe and, through the interaction table in
// README.md, the end-to-end metric the probe predicts.
const probeBatches = 5

// probe is one isolated measurement; run returns one value per metric
// it names, in order.
type probe struct {
	defs []metricDef
	run  func(scratch string) ([]float64, error)
}

func def(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }

var probes = []probe{
	{[]metricDef{def("probe.commitlog.append_mem_us", "us")}, probeAppendMem},
	{[]metricDef{def("probe.commitlog.append_file_us", "us"), def("probe.commitlog.reopen_file_ms", "ms")}, probeAppendFile},
	{[]metricDef{def("probe.commitlog.records_tail_us", "us"), def("probe.commitlog.records_full_us", "us")}, probeRecords},
	{[]metricDef{def("probe.etcd.put_serial_us", "us"), def("probe.etcd.put_allocs", "count"), def("probe.etcd.put_par2_us", "us"),
		def("probe.etcd.get_us", "us"), def("probe.etcd.watch_deliver_us", "us")}, probeEtcd},
	{[]metricDef{def("probe.mongo.insert_us", "us"), def("probe.mongo.update_push_us", "us"), def("probe.mongo.findone_us", "us"),
		def("probe.mongo.find_user_1k_ms", "ms"), def("probe.mongo.change_deliver_us", "us")}, probeMongoMem},
	{[]metricDef{def("probe.mongo.update_push_file_us", "us")}, probeMongoFile},
	{[]metricDef{def("probe.rpc.call_us", "us"), def("probe.rpc.call_allocs", "count"), def("probe.rpc.stream_msg_us", "us")}, probeRPC},
	{[]metricDef{def("probe.kube.pod_bind_us", "us"), def("probe.kube.pod_run_us", "us")}, probeKubePods},
	{[]metricDef{def("probe.kube.listpods_10k_us", "us")}, probeListPods},
	{[]metricDef{def("probe.sched.place_gang4_us", "us"), def("probe.sched.admit_release_us", "us")}, probeSched},
	{[]metricDef{def("probe.tenant.dispatch_us", "us"), def("probe.tenant.drain_1k_ms", "ms")}, probeTenant},
	{[]metricDef{def("probe.learner.rendezvous4_ms", "ms")}, probeRendezvous},
	{[]metricDef{def("probe.objstore.mount_read_us", "us"), def("probe.nfs.provision_us", "us")}, probeDataPlane},
	{[]metricDef{def("probe.obs.hist_observe_ns", "ns"), def("probe.obs.span_sub_ns", "ns")}, probeObs},
}

func probeDefs() []metricDef {
	var out []metricDef
	for _, p := range probes {
		out = append(out, p.defs...)
	}
	return out
}

// runProbes runs every probe and records its metrics. A probe that
// errors leaves its metrics out, which the correctness gate reports.
func runProbes(m *metrics, scratch string) {
	for _, p := range probes {
		vals, err := p.run(scratch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", p.defs[0].Name, err)
			continue
		}
		for i, d := range p.defs {
			m.set(d.Name, vals[i], d.Unit)
		}
	}
}

// batched runs batch probeBatches times; batch performs ops operations
// and the result is the median time per operation.
func batched(ops int, batch func(b int)) time.Duration {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		batch(b)
		per[b] = float64(time.Since(t0)) / float64(ops)
	}
	return time.Duration(median(per))
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// mallocsOver counts heap allocations made while fn runs.
func mallocsOver(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

var payload128 = make([]byte, 128)

func probeAppendMem(string) ([]float64, error) {
	l, err := commitlog.Open(commitlog.NewMemStore(), commitlog.Options{})
	if err != nil {
		return nil, err
	}
	const ops = 20000
	d := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			l.Append("k", payload128) //nolint:errcheck // a MemStore append cannot fail
		}
	})
	return []float64{micros(d)}, nil
}

func probeAppendFile(scratch string) ([]float64, error) {
	dir := filepath.Join(scratch, "commitlog")
	open := func() (*commitlog.Log, error) {
		fs, err := commitlog.OpenFileStore(dir)
		if err != nil {
			return nil, err
		}
		return commitlog.Open(fs, commitlog.Options{})
	}
	l, err := open()
	if err != nil {
		return nil, err
	}
	const ops = 2000
	var appendErr error
	d := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			if _, err := l.Append("k", payload128); err != nil {
				appendErr = err
			}
		}
	})
	if appendErr != nil {
		return nil, appendErr
	}
	// Reopen the 10k-record log: recovery reads and checks every segment.
	reopen := batched(1, func(int) {
		if _, err := open(); err != nil {
			appendErr = err
		}
	})
	return []float64{micros(d), millis(reopen)}, appendErr
}

func probeRecords(string) ([]float64, error) {
	l, err := commitlog.Open(commitlog.NewMemStore(), commitlog.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 50000; i++ {
		l.Append(fmt.Sprintf("job-%05d", i/6), payload128) //nolint:errcheck // MemStore
	}
	next := l.NextOffset()
	const tailOps, fullOps = 5000, 8
	tail := batched(tailOps, func(int) {
		for i := 0; i < tailOps; i++ {
			l.Records(next - 16)
		}
	})
	full := batched(fullOps, func(int) {
		for i := 0; i < fullOps; i++ {
			l.Records(0)
		}
	})
	return []float64{micros(tail), micros(full)}, nil
}

func probeEtcd(string) ([]float64, error) {
	c, err := etcd.NewCluster(etcd.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	if _, err := c.WaitLeader(5 * time.Second); err != nil {
		return nil, err
	}
	val := []byte("PROCESSING")
	var opErr error
	put := func(key string) {
		if _, err := c.Put(key, val, 0); err != nil {
			opErr = err
		}
	}
	const ops = 2000
	serial := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			put("jobs/probe/learners/0/status")
		}
	})
	allocs := mallocsOver(func() {
		for i := 0; i < ops; i++ {
			put("jobs/probe/learners/0/status")
		}
	})
	var parErr [2]error
	par2 := batched(2*ops, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				key := fmt.Sprintf("jobs/probe/learners/%d/status", g)
				for i := 0; i < ops; i++ {
					if _, err := c.Put(key, val, 0); err != nil {
						parErr[g] = err
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if err := errors.Join(parErr[0], parErr[1]); err != nil {
		return nil, err
	}
	const gets = 5000
	get := batched(gets, func(int) {
		for i := 0; i < gets; i++ {
			if _, _, err := c.Get("jobs/probe/learners/0/status"); err != nil {
				opErr = err
			}
		}
	})
	ws, err := c.Watch("jobs/watched/", true, 0)
	if err != nil {
		return nil, err
	}
	defer ws.Cancel()
	deliver := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			put("jobs/watched/status")
			<-ws.Events()
		}
	})
	return []float64{micros(serial), float64(allocs) / ops, micros(par2), micros(get), micros(deliver)}, opErr
}

// jobDoc is a document the shape of the platform's job records, with a
// seven-entry history so the next push makes it eight.
func jobDoc(i int) mongo.Doc {
	hist := make([]any, 7)
	for h := range hist {
		hist[h] = map[string]any{"status": "DEPLOYING", "time": "2026-01-01T00:00:00.000000001Z", "message": "probe"}
	}
	return mongo.Doc{
		"_id": fmt.Sprintf("training-%06d", i), "name": "probe", "user": userName(i % 10),
		"framework": "Caffe", "model": "VGG-16", "command": "caffe train -solver solver.prototxt",
		"learners": 1, "gpusPerLearner": 1, "gpuType": "K80", "cpus": 4, "memoryMB": 24576,
		"batchSize": 64, "iterations": 2, "dataBucket": "datasets", "dataPrefix": "data/",
		"status": "DEPLOYING", "history": hist,
	}
}

var pushUpdate = mongo.Update{
	Set: mongo.Doc{"status": "PROCESSING", "updated": "2026-01-01T00:00:00.000000002Z"},
	Push: map[string]any{"history": map[string]any{
		"status": "PROCESSING", "time": "2026-01-01T00:00:00.000000002Z", "message": "probe",
	}},
}

const mongoDocs = 10000

// fillJobs inserts mongoDocs job documents and returns the median insert
// time per document over probeBatches equal batches.
func fillJobs(coll *mongo.Collection) (time.Duration, error) {
	const ops = mongoDocs / probeBatches
	var opErr error
	d := batched(ops, func(b int) {
		for i := 0; i < ops; i++ {
			if _, err := coll.Insert(jobDoc(b*ops + i)); err != nil {
				opErr = err
			}
		}
	})
	return d, opErr
}

// pushAll appends one history entry to every document once, so each
// update lands on an eight-entry history.
func pushAll(coll *mongo.Collection) (time.Duration, error) {
	const ops = mongoDocs / probeBatches
	var opErr error
	d := batched(ops, func(b int) {
		for i := 0; i < ops; i++ {
			id := fmt.Sprintf("training-%06d", b*ops+i)
			if err := coll.UpdateOne(mongo.Filter{"_id": id}, pushUpdate); err != nil {
				opErr = err
			}
		}
	})
	return d, opErr
}

func probeMongoMem(string) ([]float64, error) {
	db := mongo.NewDB()
	coll := db.C("jobs")
	coll.EnsureIndex("user")
	coll.EnsureIndex("status")
	insert, err := fillJobs(coll)
	if err != nil {
		return nil, err
	}
	push, err := pushAll(coll)
	if err != nil {
		return nil, err
	}
	const finds = 5000
	var opErr error
	findOne := batched(finds, func(b int) {
		for i := 0; i < finds; i++ {
			if _, err := coll.FindOne(mongo.Filter{"_id": fmt.Sprintf("training-%06d", (b*finds+i*7)%mongoDocs)}); err != nil {
				opErr = err
			}
		}
	})
	const lists = 4
	findUser := batched(lists, func(b int) {
		for i := 0; i < lists; i++ {
			if n := len(coll.Find(mongo.Filter{"user": userName((b + i) % 10)}, mongo.FindOpts{SortBy: "_id"})); n != mongoDocs/10 {
				opErr = fmt.Errorf("indexed Find returned %d docs, want %d", n, mongoDocs/10)
			}
		}
	})
	cs := db.Watch("jobs", db.OplogLen())
	defer cs.Cancel()
	const changes = 1000
	deliver := batched(changes, func(b int) {
		for i := 0; i < changes; i++ {
			id := fmt.Sprintf("training-%06d", b*changes+i)
			if err := coll.UpdateOne(mongo.Filter{"_id": id}, mongo.Update{Set: mongo.Doc{"status": "STORING"}}); err != nil {
				opErr = err
			}
			<-cs.Events()
		}
	})
	return []float64{micros(insert), micros(push), micros(findOne), millis(findUser), micros(deliver)}, opErr
}

func probeMongoFile(scratch string) ([]float64, error) {
	fs, err := commitlog.OpenFileStore(filepath.Join(scratch, "mongo-oplog"))
	if err != nil {
		return nil, err
	}
	db, err := mongo.Open(fs, mongo.Options{Persist: true})
	if err != nil {
		return nil, err
	}
	coll := db.C("jobs")
	if _, err := fillJobs(coll); err != nil {
		return nil, err
	}
	push, err := pushAll(coll)
	return []float64{micros(push)}, err
}

func probeRPC(string) ([]float64, error) {
	srv := rpc.NewServer()
	srv.Register("Probe.Echo", core.SubmitArgs{}, func(_ context.Context, arg any) (any, error) {
		return core.SubmitReply{JobID: arg.(core.SubmitArgs).Manifest.Name}, nil
	})
	const msgs = 64
	srv.RegisterStream("Probe.Stream", core.WatchArgs{}, func(_ context.Context, _ any, send func(any) error) error {
		item := core.StatusItem{Seq: 1, Entry: core.StatusEntry{Status: core.StatusProcessing, Time: time.Unix(1, 1), Message: "probe"}}
		for i := 0; i < msgs; i++ {
			if err := send(item); err != nil {
				return err
			}
		}
		return nil
	})
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	reg := rpc.NewRegistry()
	reg.Add("probe", addr)
	bal := rpc.NewBalancer(reg, "probe")
	defer bal.Close()
	arg := core.SubmitArgs{Manifest: core.Manifest{
		Name: "probe-000001", User: "user-00", Framework: perf.Caffe, Model: perf.VGG16,
		Learners: 1, GPUsPerLearner: 1, GPUType: perf.K80, BatchSize: 64, Iterations: 2,
		DataBucket: "datasets", DataPrefix: "data/", Command: "caffe train -solver solver.prototxt",
	}}
	ctx := context.Background()
	var opErr error
	call := func() {
		var reply core.SubmitReply
		if err := bal.Call(ctx, "Probe.Echo", arg, &reply); err != nil {
			opErr = err
		}
	}
	const ops = 2000
	callD := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			call()
		}
	})
	allocs := mallocsOver(func() {
		for i := 0; i < ops; i++ {
			call()
		}
	})
	const streams = 20
	streamD := batched(streams*msgs, func(int) {
		for s := 0; s < streams; s++ {
			sr, err := bal.Stream(ctx, "Probe.Stream", core.WatchArgs{JobID: "probe"})
			if err != nil {
				opErr = err
				return
			}
			for {
				var item core.StatusItem
				if err := sr.Recv(&item); err != nil {
					if !errors.Is(err, rpc.ErrStreamDone) {
						opErr = err
					}
					break
				}
			}
			sr.Close()
		}
	})
	return []float64{micros(callD), float64(allocs) / ops, micros(streamD)}, opErr
}

// stretchedKube is a standalone orchestrator with the benchmark's
// platform settings: no start delay, tickers stretched to safety nets.
func stretchedKube() *kube.Cluster {
	c := kube.NewCluster(kube.Config{
		RNG:               sim.NewRNG(1),
		PodPolicy:         sched.Pack{},
		SchedulerInterval: time.Minute,
		ResyncInterval:    time.Minute,
		HeartbeatInterval: 2 * time.Minute,
		NodeGracePeriod:   10 * time.Minute,
		StartDelay:        func(string) time.Duration { return 0 },
	})
	for i := 0; i < 8; i++ {
		c.AddNode(fmt.Sprintf("node-%02d", i), "K80", sched.Resources{MilliCPU: 64000, MemoryMB: 1 << 20, GPUs: 4})
	}
	return c
}

func probeKubePods(string) ([]float64, error) {
	c := stretchedKube()
	defer c.Stop()
	c.RegisterRuntime("noop", func(*kube.PodContext) int { return 0 })
	w := c.Store().Watch(kube.KindPod)
	defer w.Cancel()
	const ops = 200
	bind := make([]float64, 0, probeBatches*ops)
	run := make([]float64, 0, probeBatches*ops)
	deadline := time.After(30 * time.Second)
	for i := 0; i < probeBatches*ops; i++ {
		name := fmt.Sprintf("probe-%05d", i)
		t0 := time.Now()
		c.Store().PutPod(&kube.Pod{Name: name, Spec: kube.PodSpec{
			Demand: sched.Resources{MilliCPU: 1000, MemoryMB: 1024, GPUs: 1}, GPUType: "K80", Runtime: "noop", Type: "learner",
		}})
		bound := false
		for done := false; !done; {
			select {
			case ev := <-w.Events():
				p, ok := ev.Object.(*kube.Pod)
				if !ok || p.Name != name {
					continue
				}
				if !bound && p.Status.Node != "" {
					bound = true
					bind = append(bind, float64(time.Since(t0)))
				}
				if p.Status.Phase == kube.PodSucceeded {
					run = append(run, float64(time.Since(t0)))
					done = true
				}
			case <-deadline:
				return nil, fmt.Errorf("pod %s never finished", name)
			}
		}
		c.Store().Delete(kube.KindPod, name)
	}
	return []float64{median(bind) / 1e3, median(run) / 1e3}, nil
}

func probeListPods(string) ([]float64, error) {
	s := kube.NewStore()
	for i := 0; i < 10000; i++ {
		s.PutPod(&kube.Pod{
			Name:   fmt.Sprintf("learner-training-%06d-%d", i/4, i%4),
			Labels: map[string]string{"job": fmt.Sprintf("training-%06d", i/4), "type": "learner"},
			Spec: kube.PodSpec{Demand: sched.Resources{MilliCPU: 4000, MemoryMB: 24576, GPUs: 1}, GPUType: "K80",
				JobID: fmt.Sprintf("training-%06d", i/4), GangSize: 4, Runtime: "learner", Type: "learner",
				RuntimeArgs: map[string]string{"job": "x", "ordinal": "0"}},
		})
	}
	const ops = 3
	d := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			s.ListPods("")
		}
	})
	return []float64{micros(d)}, nil
}

func gang4(i int) *sched.Gang {
	g := &sched.Gang{JobID: fmt.Sprintf("training-%06d", i), User: "user-00"}
	for l := 0; l < 4; l++ {
		g.Pods = append(g.Pods, sched.PodSpec{
			Name: fmt.Sprintf("learner-%s-%d", g.JobID, l), JobID: g.JobID, GPUType: "K80",
			Demand: sched.Resources{MilliCPU: 4000, MemoryMB: 24576, GPUs: 1},
		})
	}
	return g
}

func probeSched(string) ([]float64, error) {
	var nodes []*sched.Node
	for i := 0; i < 8; i++ {
		capacity := sched.Resources{MilliCPU: 64000, MemoryMB: 1 << 20, GPUs: 4}
		nodes = append(nodes, &sched.Node{Name: fmt.Sprintf("node-%02d", i), GPUType: "K80", Capacity: capacity, Free: capacity})
	}
	cs := sched.NewClusterState(nodes)
	bsa := sched.NewBSA(sim.NewRNG(1))
	g := gang4(1)
	const ops = 500
	var opErr error
	place := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			if _, fail := bsa.PlaceGang(g, cs); fail != nil {
				opErr = fail
			}
		}
	})
	adm := sched.NewAdmission(32)
	adm.SetQuota(sched.UserQuota{User: "user-00", Tier: sched.TierPaid, GPUs: 1000})
	const admits = 20000
	admit := batched(admits, func(int) {
		for i := 0; i < admits; i++ {
			if dec, err := adm.Admit(g); dec == sched.Reject {
				opErr = err
			}
			adm.Release(g.JobID)
		}
	})
	return []float64{micros(place), micros(admit)}, opErr
}

// probeBackend is the dispatcher's view of a platform that dispatches
// instantly: every job is queued until Dispatch reports it.
type probeBackend struct {
	mu         sync.Mutex
	running    map[string]bool
	dispatched chan string
}

func (b *probeBackend) Dispatch(jobID string) error {
	b.mu.Lock()
	b.running[jobID] = true
	b.mu.Unlock()
	b.dispatched <- jobID
	return nil
}
func (b *probeBackend) Preempt(string) error      { return errors.New("probe backend never preempts") }
func (b *probeBackend) Resume(string) error       { return errors.New("probe backend never resumes") }
func (b *probeBackend) Fail(string, string) error { return nil }
func (b *probeBackend) Lookup(id string) (tenant.Job, error) {
	return tenant.Job{}, fmt.Errorf("probe backend holds no record of %s", id)
}
func (b *probeBackend) Phase(id string) (tenant.Phase, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running[id] {
		return tenant.PhaseRunning, nil
	}
	return tenant.PhaseQueued, nil
}
func (b *probeBackend) PendingWork() (queued, preempted []tenant.Job) { return nil, nil }

func probeTenant(string) ([]float64, error) {
	// Buffered for the whole drain so Dispatch never blocks the loop.
	be := &probeBackend{running: map[string]bool{}, dispatched: make(chan string, 1000)}
	adm := sched.NewAdmission(1 << 20)
	adm.SetQuota(sched.UserQuota{User: "user-00", Tier: sched.TierPaid, GPUs: 1 << 20})
	d := tenant.NewDispatcher(tenant.Config{Backend: be, Admission: adm, ResyncInterval: time.Hour})
	d.Start()
	defer d.Stop()
	job := func(i int) tenant.Job {
		g := gang4(i)
		return tenant.Job{ID: g.JobID, User: g.User, Gang: g, Submitted: time.Now()}
	}
	const ops = 1000
	n := 0
	var opErr error
	wait := func() {
		select {
		case <-be.dispatched:
		case <-time.After(10 * time.Second):
			opErr = errors.New("dispatcher did not dispatch a queued job")
		}
	}
	one := batched(ops, func(int) {
		for i := 0; i < ops && opErr == nil; i++ {
			j := job(n)
			n++
			d.NoteQueued(j)
			wait()
			d.NoteTerminal(j.ID)
		}
	})
	drain := batched(1, func(int) {
		first := n
		for i := 0; i < 1000; i++ {
			d.NoteQueued(job(n))
			n++
		}
		for i := 0; i < 1000 && opErr == nil; i++ {
			wait()
		}
		for i := first; i < n; i++ {
			d.NoteTerminal(fmt.Sprintf("training-%06d", i))
		}
	})
	return []float64{micros(one), millis(drain)}, opErr
}

func probeRendezvous(string) ([]float64, error) {
	clk := sim.NewRealClock()
	prov := nfs.NewProvisioner(clk, sim.NewRNG(1))
	prov.BaseLatency, prov.LoadPenalty, prov.FailureSlope = 0, 0, 0
	store := objstore.New(objstore.Config{})
	store.EnsureBucket("datasets")
	store.EnsureBucket("results")
	if err := store.Put("datasets", "data/shard-0", make([]byte, 1<<10)); err != nil {
		return nil, err
	}
	const gangs = 8
	var opErr error
	d := batched(gangs, func(b int) {
		for g := 0; g < gangs; g++ {
			vol, err := prov.Provision(fmt.Sprintf("probe-%d-%d", b, g))
			if err != nil {
				opErr = err
				return
			}
			stop := make(chan struct{})
			changes := vol.Watch() // before the learners start, so no write is missed
			var wg sync.WaitGroup
			for ord := 0; ord < 4; ord++ {
				p := learner.New(learner.Spec{
					JobID: vol.Name(), Ordinal: ord, Learners: 4,
					Model: perf.VGG16, Framework: perf.Caffe, GPUType: perf.K80, GPUs: 1, CPUThreads: 4,
					BatchSize: 64, Iterations: 2,
					Volume: vol, Mount: store.NewMount("datasets", 1<<20), DataBucket: "datasets", DataPrefix: "data/",
					ResultStore: store, ResultBucket: "results",
					Clock: clk, TimeCompression: 0, RendezvousTimeout: time.Hour,
				})
				wg.Add(1)
				go func() { defer wg.Done(); p.Run(stop) }()
			}
			// A learner writes its exit file and then idles until the
			// platform stops it; "all exited" is all four files present.
			deadline := time.After(10 * time.Second)
			for exited := false; !exited; {
				exited = true
				for ord := 0; ord < 4; ord++ {
					if !vol.Exists(fmt.Sprintf("learners/%d/exit", ord)) {
						exited = false
					}
				}
				if exited {
					break
				}
				select {
				case <-changes:
				case <-time.After(time.Millisecond): // the volume drops notifications to a full watcher
				case <-deadline:
					opErr = errors.New("four learners did not all exit")
					exited = true
				}
			}
			close(stop)
			wg.Wait()
			prov.Release(vol)
		}
	})
	return []float64{millis(d)}, opErr
}

func probeDataPlane(string) ([]float64, error) {
	store := objstore.New(objstore.Config{})
	store.EnsureBucket("datasets")
	if err := store.Put("datasets", "data/shard-0", make([]byte, 1<<10)); err != nil {
		return nil, err
	}
	const ops = 5000
	var opErr error
	read := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			// A fresh mount per job, as the platform makes one: the read
			// always misses the chunk cache.
			if _, err := store.NewMount("datasets", 1<<20).ReadAll("data/shard-0"); err != nil {
				opErr = err
			}
		}
	})
	prov := nfs.NewProvisioner(sim.NewRealClock(), sim.NewRNG(1))
	prov.BaseLatency, prov.LoadPenalty, prov.FailureSlope = 0, 0, 0
	provision := batched(ops, func(b int) {
		for i := 0; i < ops; i++ {
			v, err := prov.Provision("probe")
			if err != nil {
				opErr = err
				continue
			}
			prov.Release(v)
		}
	})
	return []float64{micros(read), micros(provision)}, opErr
}

func probeObs(string) ([]float64, error) {
	h := obs.NewRegistry().Histogram("probe.latency")
	const ops = 1000000
	observe := batched(ops, func(int) {
		for i := 0; i < ops; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
	})
	tr := obs.NewTracer(0)
	at := time.Unix(1, 0)
	const subs = 200000
	sub := batched(subs, func(b int) {
		var id string
		for i := 0; i < subs; i++ {
			if i%16 == 0 {
				// A new job every 16 sub-spans, about what one lifecycle records.
				id = fmt.Sprintf("job-%d-%d", b, i/16)
				tr.Begin(id, at)
			}
			tr.Sub(id, "etcd.propose", at, at)
		}
	})
	return []float64{float64(observe), float64(sub)}, nil
}
