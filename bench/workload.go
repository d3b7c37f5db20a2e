package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// The load generator is a closed loop of exactly two client goroutines
// (the sandbox has two cores; more generators would measure the Go
// scheduler): a client submits its next job, or its next burst, only
// after the previous one is terminal.
const clients = 2

// Every workload spreads its jobs over the same sixteen users, eight per
// client, so List(user) returns a comparable slice of a growing table
// everywhere. Only sweep_tenant gives the users tenant records.
const (
	users          = 16
	usersPerClient = users / clients
)

const (
	warmupPerClient = 100              // warm-up jobs per client, charged to setup_s
	setupRounds     = 5                // full set-ups per run; setup_s is their median
	jobDeadline     = 10 * time.Second // a job not COMPLETED this long after submit has failed
	workloadCap     = 120 * time.Second
	traceEvery      = 20   // traced run: every 20th job's product trace is fetched
	dumpLimit       = 3    // failure dumps written per run
	baseSeconds     = 15   // measured seconds at the seed commit that the base counts were sized for
	readSweepOps    = 1000 // Status and Logs reads per client in the read sweep
	readSweepLists  = 32   // List(user) reads per client in the read sweep
)

// workload is one fixed-count job shape. Counts are fixed, not
// durations: per-job cost grows with the jobs already in the tables, so
// only a fixed count makes two commits do identical work.
type workload struct {
	workloadDef
	Jobs     int  // at scale 1
	Learners int  // per job; each learner takes one K80
	Nodes    int  // 4-GPU nodes
	Durable  bool // Config.DataDir on a fresh directory
	Burst    int  // jobs a client submits before it watches any; 0 = one at a time, no tenancy
}

var workloads = []workload{
	{workloadDef{"single_mem", "one-learner jobs on MemStore: the fixed per-job control-plane path and nothing else; every other workload is read against it"},
		7000, 1, 8, false, 0},
	{workloadDef{"single_durable", "single_mem with DataDir on: the difference is the FileStore cost under oplog, status bus and learner logs, the shipping configuration"},
		6000, 1, 8, true, 0},
	{workloadDef{"gang_mem", "four-learner jobs: gang placement, learner rendezvous, 4x etcd status keys and guardian fan-in, the distributed-training shape"},
		3400, 4, 8, false, 0},
	{workloadDef{"sweep_tenant", "bursts of 16 over capacity with tenancy on, Status/List/Logs reads beside the writes: dispatcher, admission and read routes under load"},
		6000, 1, 2, false, 16},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// whole rounds a job count to a whole number of bursts per client.
func (w workload) whole(n float64) int {
	unit := clients
	if w.Burst > 0 {
		unit = clients * w.Burst
	}
	k := int(math.Round(n / float64(unit)))
	if k < 1 {
		k = 1
	}
	return k * unit
}

// jobCount is the measured phase's job count at the given scale.
func (w workload) jobCount(scale float64) int { return w.whole(float64(w.Jobs) * scale) }

// barrier releases the clients once all of them have arrived; it is
// reusable, one generation per burst.
type barrier struct {
	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func (b *barrier) wait() {
	b.mu.Lock()
	if b.release == nil {
		b.release = make(chan struct{})
	}
	b.arrived++
	if b.arrived == clients {
		b.arrived = 0
		close(b.release)
		b.release = nil
		b.mu.Unlock()
		return
	}
	release := b.release
	b.mu.Unlock()
	<-release
}

// readOp is one client-timed read beside (or after) the writes.
type readOp struct {
	kind string // "status", "list", "logs"
	dur  time.Duration
}

// run is one measured phase of one workload against one platform.
type run struct {
	w      workload
	seed   int64
	traced bool
	outDir string

	p       *core.Platform
	client  *core.Client
	dataDir string

	ctx        context.Context
	together   barrier // the clients' rendezvous before each burst
	namePrefix string
	samples    []jobSample
	byUser     [users][]int // sample indexes per user, in submit order

	mu           sync.Mutex
	reads        [clients][]readOp
	readErrs     int
	readFailures []string
	// lostReplies counts unary RPCs that returned no error and an empty
	// reply (see recoverID).
	lostReplies int
	problems    []string // correctness-gate findings
	dumps       int

	// product traces sampled during a traced run
	traces []obs.Trace

	// measured-phase accounting
	wall             time.Duration
	cpu              time.Duration
	mallocs, bytes   uint64
	liveBefore, live uint64
	gcPauseNS        uint64
	numGC            uint32
	heapPeak         uint64
	snapBefore, snap obs.Snapshot
}

func userName(u int) string { return fmt.Sprintf("user-%02d", u) }

// platformConfig is the configuration expt.Throughput already uses, on
// the real clock: every modeled delay is zero and every ticker is a
// stretched safety net, so measured time is control-plane software cost
// on the event-driven path and a lost wake-up shows as a failed job
// instead of being papered over by a 3 ms poll.
func platformConfig(w workload, seed int64, dataDir string) core.Config {
	cfg := core.Config{
		Seed:              seed,
		PollInterval:      30 * time.Second,
		SchedulerInterval: time.Minute,
		ResyncInterval:    time.Minute,
		HeartbeatInterval: 2 * time.Minute,
		NodeGracePeriod:   10 * time.Minute,
		RendezvousTimeout: time.Hour,
		TimeCompression:   0,
		StartDelay:        func(string) time.Duration { return 0 },
		DataDir:           dataDir,
	}
	if w.Burst > 0 {
		// Quotas sit far above any burst on purpose: no preemption may
		// fire (the gate asserts tenant.preempted == 0).
		tc := &core.TenancyConfig{}
		for u := 0; u < users; u++ {
			tc.Quotas = append(tc.Quotas, tenant.Record{User: userName(u), Tier: sched.TierPaid, GPUs: 1000})
		}
		cfg.Tenancy = tc
	}
	return cfg
}

// boot brings up a platform for w with nodes and the dataset shard.
func boot(w workload, seed int64, dataDir string) (*core.Platform, error) {
	p, err := core.NewPlatform(platformConfig(w, seed, dataDir))
	if err != nil {
		return nil, err
	}
	p.NFS.BaseLatency = 0
	p.NFS.FailureSlope = 0
	for i := 0; i < w.Nodes; i++ {
		p.AddNode(fmt.Sprintf("node-%02d", i), "K80", 4, 64, 1<<20)
	}
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "data/shard-0", make([]byte, 1<<10)); err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

func (r *run) manifest(s *jobSample, n int) core.Manifest {
	return core.Manifest{
		Name: fmt.Sprintf("%s%d", r.namePrefix, n), User: userName(s.user),
		Framework: perf.Caffe, Model: perf.VGG16,
		Learners: r.w.Learners, GPUsPerLearner: 1, GPUType: perf.K80,
		BatchSize: 64, Iterations: 2,
		DataBucket: "datasets", DataPrefix: "data/",
		Command: "caffe train -solver solver.prototxt",
	}
}

// setUp boots a platform and runs the warm-up jobs; the time it takes is
// one setup_s sample.
func setUp(w workload, seed int64, scratch string, round int) (*run, time.Duration, error) {
	start := time.Now()
	dataDir := ""
	if w.Durable {
		dataDir = filepath.Join(scratch, fmt.Sprintf("data-%d", round))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	p, err := boot(w, seed, dataDir)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, seed: seed, p: p, client: p.Client(), dataDir: dataDir}
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	defer cancel()
	r.ctx = ctx
	r.plan(w.whole(clients*warmupPerClient), warmupPrefix)
	r.drive()
	for i := range r.samples {
		if f := r.samples[i].failure; f != "" {
			p.Stop()
			return nil, 0, fmt.Errorf("warm-up job %s: %s", r.samples[i].id, f)
		}
	}
	return r, time.Since(start), nil
}

// Job name prefixes: warm-up jobs share the users and tables of the
// measured phase, and the List check tells the two apart by name.
const (
	warmupPrefix   = "warmup-"
	measuredPrefix = "job-"
)

// plan lays out n jobs before the clock starts: which client submits
// each, for which user, in seeded order.
func (r *run) plan(n int, namePrefix string) {
	r.namePrefix = namePrefix
	r.samples = make([]jobSample, n)
	r.byUser = [users][]int{}
	rng := rand.New(rand.NewSource(r.seed))
	per := n / clients
	for c := 0; c < clients; c++ {
		// Each client rotates through its own eight users, starting at a
		// seeded offset; sweep_tenant rotates per burst, the others per job.
		off := rng.Intn(usersPerClient)
		for k := 0; k < per; k++ {
			step := k
			if r.w.Burst > 0 {
				step = k / r.w.Burst
			}
			i := c*per + k
			r.samples[i].client = c
			r.samples[i].user = c*usersPerClient + (off+step)%usersPerClient
		}
	}
	if r.traced {
		r.traces = make([]obs.Trace, 0, n/traceEvery+1)
	}
	for c := range r.reads {
		r.reads[c] = make([]readOp, 0, per+per/4+8)
	}
}

// measure runs the measured phase on a warmed-up platform.
func (r *run) measure(n int) {
	r.plan(n, measuredPrefix)
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	defer cancel()
	r.ctx = ctx

	if r.w.Durable {
		// Start from a settled page cache: what set-up (and earlier runs)
		// left dirty would otherwise be written back during the phase.
		syscall.Sync()
	}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if r.traced {
		r.snapBefore = r.p.Obs.Snapshot()
	}
	cpu0 := processCPU()
	t0 := time.Now()
	r.drive()
	r.wall = time.Since(t0)
	r.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if r.traced {
		r.snap = r.p.Obs.Snapshot()
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)

	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.liveBefore, r.live = m0.HeapAlloc, m2.HeapAlloc
	r.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	r.numGC = m1.NumGC - m0.NumGC
	r.heapPeak = m1.HeapSys - m1.HeapReleased
}

// processCPU is user+system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the two clients over the planned samples and waits for both.
func (r *run) drive() {
	per := len(r.samples) / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := c*per, (c+1)*per
			if r.w.Burst == 0 {
				for i := lo; i < hi; i++ {
					r.oneJob(i)
				}
				return
			}
			for i := lo; i < hi; i += r.w.Burst {
				r.oneBurst(c, i, i+r.w.Burst)
			}
		}(c)
	}
	wg.Wait()
	for i := range r.samples {
		s := &r.samples[i]
		r.byUser[s.user] = append(r.byUser[s.user], i)
	}
}

// oneJob is a complete lifecycle with one job in flight: submit, open
// the watch, consume it to the terminal transition.
func (r *run) oneJob(i int) {
	s := &r.samples[i]
	ctx, cancel := context.WithTimeout(r.ctx, jobDeadline)
	defer cancel()
	if !r.submit(ctx, s, i) {
		return
	}
	r.watch(ctx, s)
	r.sampleTrace(ctx, s, i)
}

// oneBurst is the hyper-parameter-sweep shape: submit the whole burst,
// read each job's status, watch each to terminal, then list the user's
// jobs and read one job's logs — reads beside writes. The clients start
// each burst together, so every round puts both bursts in flight against
// the eight GPUs; left to drift, the two would overlap by a different
// amount in every run and the queueing latencies would follow.
func (r *run) oneBurst(c, lo, hi int) {
	r.together.wait()
	ctx, cancel := context.WithTimeout(r.ctx, jobDeadline)
	defer cancel()
	for i := lo; i < hi; i++ {
		r.submit(ctx, &r.samples[i], i)
	}
	for i := lo; i < hi; i++ {
		if s := &r.samples[i]; s.failure == "" {
			r.timedRead(ctx, c, "status", func() error { return r.status(ctx, s) })
		}
	}
	last := -1
	for i := lo; i < hi; i++ {
		if s := &r.samples[i]; s.failure == "" {
			r.watch(ctx, s)
			r.sampleTrace(ctx, s, i)
			if s.failure == "" {
				last = i
			}
		}
	}
	if last < 0 {
		return
	}
	s := &r.samples[last]
	r.listUser(ctx, c, s.user, hi)
	r.logsOf(ctx, c, s)
}

// submit, watch and the reads below are the client spans of the trace:
// each records when the call into the platform began and returned.
func (r *run) submit(ctx context.Context, s *jobSample, i int) bool {
	m := r.manifest(s, i)
	s.submit = time.Now()
	id, err := r.client.Submit(ctx, m)
	s.submitDone = time.Now()
	if err == nil && id == "" {
		id, err = r.recoverID(ctx, m)
	}
	if err != nil {
		r.fail(s, fmt.Sprintf("submit: %v", err))
		return false
	}
	s.id = id
	return true
}

// recoverID handles a Submit that returned neither an error nor a job
// id. At the seed commit rpc.Conn.Call can take a reply's end frame
// before its data frame (its select reads two ready channels in random
// order) and the caller then sees an empty reply; sizing runs met it in
// about one gang_mem run in five. The job exists; a user would look it
// up by name, and so does the client here, counting the event as
// rpc.lost_replies rather than letting a product race fail a whole run.
func (r *run) recoverID(ctx context.Context, m core.Manifest) (string, error) {
	r.mu.Lock()
	r.lostReplies++
	r.mu.Unlock()
	for try := 0; try < 3; try++ {
		recs, err := r.client.List(ctx, m.User)
		if err != nil {
			return "", err
		}
		for _, rec := range recs {
			if rec.Manifest.Name == m.Name {
				return rec.ID, nil
			}
		}
	}
	return "", fmt.Errorf("reply carried no job id and List(%s) has no job named %s", m.User, m.Name)
}

func (r *run) watch(ctx context.Context, s *jobSample) {
	s.watchStart = time.Now()
	ch, cancel, err := r.client.WatchStatus(ctx, s.id)
	s.watchOpen = time.Now()
	if err != nil {
		r.fail(s, fmt.Sprintf("watch: %v", err))
		return
	}
	defer cancel()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				if ctx.Err() != nil {
					r.fail(s, "not terminal "+jobDeadline.String()+" after submit")
				} else {
					r.fail(s, "watch closed before a terminal transition")
				}
				return
			}
			s.add(e)
			if e.Status.Terminal() {
				s.seenEnd = time.Now()
				if e.Status != core.StatusCompleted {
					r.fail(s, "ended "+string(e.Status)+": "+e.Message)
				}
				return
			}
		case <-ctx.Done():
			r.fail(s, "not terminal "+jobDeadline.String()+" after submit")
			return
		}
	}
}

// sampleTrace fetches the product's own span tree for every
// traceEvery-th job of a traced run, while the tracer still retains it.
func (r *run) sampleTrace(ctx context.Context, s *jobSample, i int) {
	if !r.traced || i%traceEvery != 0 || s.failure != "" {
		return
	}
	t, err := r.client.Trace(ctx, s.id)
	if err != nil {
		r.readFailed(fmt.Sprintf("trace %s: %v", s.id, err))
		return
	}
	r.mu.Lock()
	r.traces = append(r.traces, t)
	r.mu.Unlock()
}

// errLostReply marks a read whose reply arrived empty (see recoverID);
// the read is repeated, untimed samples being cheaper than wrong ones.
var errLostReply = errors.New("reply lost")

// status reads one job's status and checks the reply is about that job.
func (r *run) status(ctx context.Context, s *jobSample) error {
	reply, err := r.client.Status(ctx, s.id)
	if err == nil && reply.JobID == "" {
		return errLostReply
	}
	if err == nil && reply.JobID != s.id {
		return fmt.Errorf("Status(%s) answered for %s", s.id, reply.JobID)
	}
	return err
}

func (r *run) timedRead(ctx context.Context, c int, kind string, op func() error) {
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	if errors.Is(err, errLostReply) {
		r.mu.Lock()
		r.lostReplies++
		r.mu.Unlock()
		err = op()
		d = 0 // the repeat is not a clean sample
	}
	if err != nil {
		r.readFailed(fmt.Sprintf("%s: %v", kind, err))
		return
	}
	if d > 0 {
		r.reads[c] = append(r.reads[c], readOp{kind, d})
	}
}

func (r *run) readFailed(what string) {
	r.mu.Lock()
	r.readErrs++
	if len(r.readFailures) < 10 {
		r.readFailures = append(r.readFailures, what)
	}
	r.mu.Unlock()
}

func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// listUser times List(user) and checks it returns exactly the jobs this
// user has submitted so far: those in samples[clientLo:upto] (a user
// belongs to one client, and a client's samples are submitted in order).
func (r *run) listUser(ctx context.Context, c, user, upto int) {
	var recs []core.JobRecord
	per := len(r.samples) / clients
	want := map[string]bool{}
	for i := c * per; i < upto; i++ {
		if s := &r.samples[i]; s.user == user && s.id != "" {
			want[s.id] = true
		}
	}
	r.timedRead(ctx, c, "list", func() error {
		var err error
		recs, err = r.client.List(ctx, userName(user))
		if err == nil && len(recs) == 0 && len(want) > 0 {
			return errLostReply
		}
		return err
	})
	if recs == nil {
		return
	}
	got := 0
	for _, rec := range recs {
		if want[rec.ID] {
			got++
		} else if strings.HasPrefix(rec.Manifest.Name, measuredPrefix) {
			r.problem("List(%s) returned %s, which that user did not submit", userName(user), rec.ID)
		}
	}
	if got != len(want) {
		r.problem("List(%s) returned %d of the user's %d jobs", userName(user), got, len(want))
	}
}

// logsOf times Logs(job) and requires the job's learner log non-empty.
func (r *run) logsOf(ctx context.Context, c int, s *jobSample) {
	var lines []core.LogLine
	r.timedRead(ctx, c, "logs", func() error {
		var err error
		lines, err = r.client.Logs(ctx, s.id)
		return err
	})
	if len(lines) == 0 {
		r.problem("Logs(%s) is empty", s.id)
	}
}

// fail marks a job failed and, for the first few, writes what an
// engineer needs to find the lost wake-up: the job's status and history
// as the platform sees them, and every goroutine's stack.
func (r *run) fail(s *jobSample, why string) {
	if s.failure != "" {
		return
	}
	s.failure = why
	r.mu.Lock()
	n := r.dumps
	r.dumps++
	r.mu.Unlock()
	if n >= dumpLimit {
		return
	}
	msg := fmt.Sprintf("job %q (%s, client %d): %s\nwatched: %v\n", s.id, r.w.Name, s.client, why, s.history())
	if s.id != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		reply, err := r.client.Status(ctx, s.id)
		cancel()
		msg += fmt.Sprintf("status now: %s (err %v)\nhistory: %+v\n", reply.Status, err, reply.History)
	}
	if r.outDir == "" {
		fmt.Fprint(os.Stderr, msg)
		return
	}
	buf := make([]byte, 1<<22)
	buf = buf[:runtime.Stack(buf, true)]
	path := filepath.Join(r.outDir, fmt.Sprintf("failure-%s-%d.txt", r.w.Name, n))
	if err := os.WriteFile(path, append([]byte(msg+"\n"), buf...), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "%s(dump not written: %v)\n", msg, err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s(goroutine dump in %s)\n", msg, path)
}
