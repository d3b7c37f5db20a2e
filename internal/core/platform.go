package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/nfs"
	"github.com/ffdl/ffdl/internal/objstore"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/tenant"
)

// Pod type labels used across the platform (they key container start
// delays and the failure analytics of Table 8 / Fig. 6).
const (
	PodTypeLearner  = "learner"
	PodTypeHelper   = "lhelper"
	PodTypeGuardian = "jobmonitor"
)

// Service names in the RPC registry.
const (
	ServiceAPI = "ffdl-api"
	ServiceLCM = "ffdl-lcm"
)

// Replication factors of the control plane.
const (
	apiReplicas  = 2
	lcmReplicas  = 2
	etcdReplicas = 3
)

// Config parameterizes a Platform.
type Config struct {
	// Clock drives everything; defaults to wall clock.
	Clock sim.Clock
	// Seed makes the platform deterministic where randomness is used.
	Seed int64

	// GangScheduling enables the BSA gang scheduler (on by default, as
	// in production FfDL).
	GangScheduling *bool

	// StartDelay gives the container start latency per pod type; the
	// defaults are milliseconds for fast tests. Table 3 configures
	// paper-scale values (guardian 1-2s, helper 3-4s, learner 10-20s).
	StartDelay func(podType string) time.Duration
	// APIRestartDelay / LCMRestartDelay model microservice replica
	// restart (Table 3: API 3-5s, LCM 4-6s).
	APIRestartDelay time.Duration
	LCMRestartDelay time.Duration

	// TimeCompression converts modeled learner seconds to real clock
	// time (0 = run training instantaneously).
	TimeCompression float64
	// RendezvousTimeout bounds learner peer-waiting.
	RendezvousTimeout time.Duration

	// PollInterval is the platform-internal control loop period.
	PollInterval time.Duration
	// SchedulerInterval is ignored; ROADMAP 1a deletes it.
	SchedulerInterval time.Duration
	// ResyncInterval is ignored; ROADMAP 1a deletes it.
	ResyncInterval time.Duration
	// HeartbeatInterval / NodeGracePeriod tune the kubelets' lease
	// renewals and the node controller (defaulted by internal/kube when
	// zero). Long-virtual-horizon experiments on a simulated clock
	// stretch them so their tickers do not dominate the timer firings.
	HeartbeatInterval time.Duration
	NodeGracePeriod   time.Duration

	// Tenancy, when non-nil, enables the multi-tenant subsystem
	// (internal/tenant): submissions are persisted as QUEUED and an
	// event-driven dispatcher admits them in FCFS order, preempting
	// free-tier and over-quota work for starved in-quota requests. The
	// dispatcher's admission controller tracks its cluster budget from
	// kube node capacity. Nil leaves submission open: every valid job
	// is persisted as PENDING, which the LCM deploys.
	Tenancy *TenancyConfig

	// DataDir, when set, roots the platform's durable logs: the mongo
	// oplog and the learner log each open a commitlog.FileStore
	// directory under it (see durable.go for the layout) and are
	// recovered on boot — job documents with their status history, log
	// offsets and retained floors all survive a full process restart.
	// Empty (the default) keeps every log in memory, in the same bytes.
	DataDir string

	// StoreWrapper, when non-nil, wraps the segment store of each of
	// the platform's two logs as NewPlatform opens it, by its DataDir
	// name ("mongo-oplog" or "learner-logs") — the chaos harness's hook
	// for injecting FaultStore crash/corruption under the real file
	// layout. Leave nil in production configs.
	StoreWrapper StoreWrapper

	// DisableObs strips the observability layer's hot-path cost — the
	// ablation arm of expt.ObsOverhead. Subsystems are built with nil
	// instrument handles (every histogram observation and trace span
	// becomes a no-op; see internal/obs's cost model) and no per-job
	// tracer is kept. The metrics registry itself survives: platform
	// health counters (MetricsService.Inc) and the snapshot-time stats
	// collectors are product behavior and cost nothing between scrapes,
	// so GET /v1/metrics keeps working either way. Leave false.
	DisableObs bool
}

func (c *Config) defaults() {
	if c.Clock == nil {
		c.Clock = sim.NewRealClock()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GangScheduling == nil {
		t := true
		c.GangScheduling = &t
	}
	if c.StartDelay == nil {
		c.StartDelay = func(podType string) time.Duration {
			switch podType {
			case PodTypeLearner:
				return 10 * time.Millisecond
			case PodTypeHelper:
				return 3 * time.Millisecond
			case PodTypeGuardian:
				return 2 * time.Millisecond
			default:
				return time.Millisecond
			}
		}
	}
	if c.APIRestartDelay <= 0 {
		c.APIRestartDelay = 4 * time.Millisecond
	}
	if c.LCMRestartDelay <= 0 {
		c.LCMRestartDelay = 5 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 3 * time.Millisecond
	}
	if c.RendezvousTimeout <= 0 {
		c.RendezvousTimeout = 30 * time.Second
	}
}

// TenancyConfig parameterizes the multi-tenant subsystem.
type TenancyConfig struct {
	// Quotas seeds the tenant registry at boot; Client.SetQuota (and
	// PUT /v1/tenants/{user}) add or update records at runtime.
	Quotas []tenant.Record
	// DisablePreemption keeps starved in-quota heads waiting instead of
	// checkpointing victims (ablation; production FfDL preempts, §3.6).
	DisablePreemption bool
}

// jobResources is the in-memory handle set for one deployed job.
type jobResources struct {
	manifest Manifest
	volume   *nfs.Volume
	mount    *objstore.Mount
	// logFrom is the offset the job's next log line took when volume was
	// provisioned: the job's lines from there on came from this volume's
	// stdout files, and those before from an earlier deployment's.
	logFrom uint64
}

// Platform is a fully wired FfDL instance.
type Platform struct {
	cfg   Config
	clock sim.Clock
	rng   *sim.RNG

	Kube    *kube.Cluster
	Etcd    *etcd.Cluster
	Mongo   *mongo.DB
	Jobs    *mongo.Collection
	Store   *objstore.Service
	NFS     *nfs.Provisioner
	Metrics *MetricsService

	// Obs is the unified metrics registry (internal/obs): every
	// subsystem's instruments, the MetricsService counters, and the
	// snapshot-time stats collectors all live here. Always non-nil.
	// Tracer records per-job lifecycle span trees (nil when
	// Config.DisableObs strips the layer).
	Obs    *obs.Registry
	Tracer *obs.Tracer

	Registry *rpc.Registry

	// res holds the per-dependency-edge resilience policies (retry,
	// backoff, breaker — see resilience.go). One policy per edge, shared
	// by every caller, so each dependency has exactly one breaker.
	res *resilienceHub

	// Tenants and Dispatcher are the multi-tenant subsystem (nil unless
	// Config.Tenancy is set): the MongoDB-backed quota registry and the
	// event-driven admission queue over it. Admission is the
	// dispatcher's accounting controller.
	Tenants    *tenant.Registry
	Dispatcher *tenant.Dispatcher
	Admission  *sched.Admission

	// bus fans out job status transitions to in-process subscribers
	// (LCM recovery, tenancy, API WatchStatus streams); heads hold each
	// live job's last written status and Seq, and the lock that orders
	// its writes so bus sequence numbers match MongoDB history (see
	// setJobStatus).
	bus     *fanout[StatusEvent]
	headsMu sync.Mutex
	heads   map[string]*statusHead

	mu        sync.Mutex
	apis      []*apiReplica
	lcms      []*lcmReplica
	resources map[string]*jobResources
	jobSeq    int

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewPlatform boots a complete FfDL instance (etcd cluster, mongo,
// object store, NFS provisioner, kube orchestrator, API/LCM replicas,
// metrics service) with no worker nodes; call AddNode to add capacity.
func NewPlatform(cfg Config) (*Platform, error) {
	cfg.defaults()
	rng := sim.NewRNG(cfg.Seed)

	// One registry for everything; instruments is the handle subsystems
	// derive their hot-path instruments from and is nil under the
	// DisableObs ablation (nil handles are free no-ops).
	registry := obs.NewRegistry()
	instruments := registry
	var tracer *obs.Tracer
	if cfg.DisableObs {
		instruments = nil
	} else {
		tracer = obs.NewTracer(0)
	}

	etcdCluster, err := etcd.NewCluster(etcd.Options{
		Replicas: etcdReplicas,
		Clock:    cfg.Clock,
		Seed:     cfg.Seed + 1,
		Obs:      instruments,
	})
	if err != nil {
		return nil, fmt.Errorf("core: boot etcd: %w", err)
	}

	oplogStore, err := openLogStore(cfg.DataDir, dirMongoOplog, cfg.StoreWrapper)
	if err != nil {
		return nil, err
	}
	// The oplog runs the same codec and key-compaction in memory as on
	// disk: only the store differs.
	db, err := mongo.Open(oplogStore, mongo.Options{
		Persist: true,
		Obs:     instruments,
		Clock:   cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open metadata store: %w", err)
	}
	jobs := db.C("jobs")
	jobs.EnsureIndex("user")
	jobs.EnsureIndex("status")

	// Recover the job-id sequence past every persisted job so a
	// reopened platform never re-mints an existing "training-%06d" id.
	jobSeq := 0
	for _, d := range jobs.Find(mongo.Filter{}, mongo.FindOpts{}) {
		id, _ := d["_id"].(string)
		var n int
		if _, err := fmt.Sscanf(id, "training-%d", &n); err == nil && n > jobSeq {
			jobSeq = n
		}
	}

	learnerStore, err := openLogStore(cfg.DataDir, dirLearnerLogs, cfg.StoreWrapper)
	if err != nil {
		db.Close() //nolint:errcheck // the open error is the one to report
		return nil, err
	}
	learnerLog, err := commitlog.Open(learnerStore, commitlog.Options{Obs: instruments, Clock: cfg.Clock})
	if err != nil {
		db.Close() //nolint:errcheck // the open error is the one to report
		return nil, fmt.Errorf("core: open learner log: %w", err)
	}
	metrics := NewMetricsService(learnerLog, registry)

	store := objstore.New(objstore.Config{Clock: cfg.Clock})
	prov := nfs.NewProvisioner(cfg.Clock, rng.Stream(2))
	// Platform tests run with fast provisioning; the §4 load-dependent
	// behaviour is exercised explicitly by chaos tests.
	prov.BaseLatency = time.Millisecond
	prov.LoadPenalty = 0

	var gang sched.GangPolicy
	if *cfg.GangScheduling {
		gang = sched.NewBSA(rng.Stream(3))
	}
	kubeCluster := kube.NewCluster(kube.Config{
		Clock:             cfg.Clock,
		RNG:               rng.Stream(4),
		PodPolicy:         sched.Pack{},
		GangPolicy:        gang,
		StartDelay:        cfg.StartDelay,
		HeartbeatInterval: cfg.HeartbeatInterval,
		NodeGracePeriod:   cfg.NodeGracePeriod,
		Obs:               instruments,
		Tracer:            tracer,
	})

	p := &Platform{
		cfg:      cfg,
		clock:    cfg.Clock,
		rng:      rng,
		Kube:     kubeCluster,
		Etcd:     etcdCluster,
		Mongo:    db,
		Jobs:     jobs,
		Store:    store,
		NFS:      prov,
		Metrics:  metrics,
		Obs:      registry,
		Tracer:   tracer,
		Registry: rpc.NewRegistry(),
		res:      newResilienceHub(&cfg, instruments),
		// A status watch may fall 16 transitions behind before it
		// refills from MongoDB: a watch follows one job, whose whole
		// life is about ten transitions, and at most 4 were measured
		// waiting at once on the bench workloads.
		bus:       newFanout[StatusEvent](16),
		heads:     make(map[string]*statusHead),
		resources: make(map[string]*jobResources),
		jobSeq:    jobSeq,
		stopCh:    make(chan struct{}),
	}
	p.Registry.SetObs(instruments, cfg.Clock)
	registry.RegisterCollector(p.collectStats)
	p.registerRuntimes()

	if cfg.Tenancy != nil {
		if err := p.startTenancy(cfg.Tenancy); err != nil {
			p.Stop()
			return nil, err
		}
	}

	for i := 0; i < apiReplicas; i++ {
		a, err := newAPIReplica(p, i)
		if err != nil {
			p.Stop()
			return nil, err
		}
		p.apis = append(p.apis, a)
	}
	for i := 0; i < lcmReplicas; i++ {
		l, err := newLCMReplica(p, i)
		if err != nil {
			p.Stop()
			return nil, err
		}
		p.lcms = append(p.lcms, l)
	}
	return p, nil
}

// AddNode adds a worker machine to the cluster.
func (p *Platform) AddNode(name, gpuType string, gpus int, cpus int, memMB int64) {
	p.Kube.AddNode(name, gpuType, sched.Resources{
		MilliCPU: int64(cpus) * 1000, MemoryMB: memMB, GPUs: gpus,
	})
}

// Client returns a load-balanced client for the platform's API service,
// bound to the platform clock so waits run in simulated time, with the
// client→api resilience policy installed (transient replica failures
// are retried with backoff instead of surfacing to every caller).
func (p *Platform) Client() *Client {
	return NewClient(p.Registry).WithClock(p.clock).WithResilience(p.res.client)
}

// nextJobID mints a job identifier.
func (p *Platform) nextJobID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobSeq++
	return fmt.Sprintf("training-%06d", p.jobSeq)
}

// putResources registers a job's in-memory handles.
func (p *Platform) putResources(jobID string, r *jobResources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.resources[jobID] = r
}

// getResources fetches a job's handles.
func (p *Platform) getResources(jobID string) (*jobResources, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.resources[jobID]
	return r, ok
}

func (p *Platform) dropResources(jobID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.resources, jobID)
}

// CrashAPI kills one API replica; it restarts after the configured
// delay (Table 3's API row). Returns false if the index is invalid.
func (p *Platform) CrashAPI(i int) bool {
	if i < 0 || i >= len(p.apis) {
		return false
	}
	p.apis[i].crashAndRestart()
	return true
}

// CrashLCM kills one LCM replica with automatic restart.
func (p *Platform) CrashLCM(i int) bool {
	if i < 0 || i >= len(p.lcms) {
		return false
	}
	p.lcms[i].crashAndRestart()
	return true
}

// Stop shuts the platform down.
func (p *Platform) Stop() {
	select {
	case <-p.stopCh:
		return
	default:
	}
	close(p.stopCh)
	if p.Dispatcher != nil {
		p.Dispatcher.Stop()
	}
	for _, a := range p.apis {
		a.stop()
	}
	for _, l := range p.lcms {
		l.stop()
	}
	p.Kube.Stop()
	p.Etcd.Stop()
	p.wg.Wait()
	// Close both durable logs: a stopped platform holds no descriptor
	// under DataDir, and a late write from a pod still winding down
	// fails instead of landing in the segment a reopened platform
	// appends to.
	p.Mongo.Close()       //nolint:errcheck // nothing is buffered
	p.Metrics.log.Close() //nolint:errcheck // nothing is buffered
}

// collectStats mirrors every subsystem's Stats() accessors into the
// registry as snapshot-time gauges under the dotted naming convention.
// The accessors remain the programmatic views; this collector is what
// puts the same numbers on the GET /v1/metrics scrape with zero
// hot-path cost (it runs only when a snapshot is taken).
func (p *Platform) collectStats(set func(name string, v int64)) {
	ss := p.Kube.SchedStats()
	set("sched.passes", int64(ss.Passes))
	set("sched.full_scans", int64(ss.FullScans))
	set("sched.nodes_examined", int64(ss.NodesExamined))
	set("sched.pods_bound", int64(ss.PodsBound))
	set("sched.events_seen", int64(ss.EventsSeen))
	set("sched.events_ignored", int64(ss.EventsIgnored))
	set("sched.spread_full_scans", int64(ss.SpreadFullScans))

	es := p.Etcd.Stats()
	set("etcd.commands", int64(es.Commands))
	set("etcd.entries", int64(es.Entries))
	set("etcd.max_batch", int64(es.MaxBatch))
	set("etcd.appends_sent", int64(es.AppendsSent))
	set("etcd.entries_sent", int64(es.EntriesSent))

	alloc, capacity := p.Kube.GPUUtilization()
	set("kube.gpus_allocated", int64(alloc))
	set("kube.gpus_capacity", int64(capacity))

	bytesIn, bytesOut := p.Store.Stats()
	set("objstore.bytes_in", bytesIn)
	set("objstore.bytes_out", bytesOut)

	if d := p.Dispatcher; d != nil {
		ds := d.Stats()
		set("tenant.wakes", int64(ds.Wakes))
		set("tenant.passes", int64(ds.Passes))
		set("tenant.dispatched", int64(ds.Dispatched))
		set("tenant.resumed", int64(ds.Resumed))
		set("tenant.preempted", int64(ds.Preempted))
		set("tenant.requeued", int64(ds.Requeued))
		set("tenant.resyncs", int64(ds.Resyncs))
		set("tenant.failed", int64(ds.Failed))
		set("tenant.queue_depth", int64(d.QueueDepth()))
	}
}

// tracedPut writes a job-scoped etcd key through the etcd edge policy,
// recording an etcd.propose sub-span on the job's trace under its
// current lifecycle phase. The span covers retries — that is the
// latency the job actually experienced.
func (p *Platform) tracedPut(jobID, key string, val []byte) (uint64, error) {
	var rev uint64
	put := func(context.Context) error {
		var err error
		rev, err = p.Etcd.Put(key, val, 0)
		return err
	}
	if p.Tracer == nil {
		return rev, p.res.etcd.Do(context.Background(), put)
	}
	start := p.clock.Now()
	err := p.res.etcd.Do(context.Background(), put)
	p.Tracer.Sub(jobID, "etcd.propose", start, p.clock.Now())
	return rev, err
}

// etcd key helpers.
func keyJobPrefix(jobID string) string { return "jobs/" + jobID + "/" }
func keyLearnerStatus(jobID string, ord int) string {
	return keyJobPrefix(jobID) + "learners/" + strconv.Itoa(ord) + "/status"
}
func keyControl(jobID string) string { return "jobs/" + jobID + "/control" }
func keyDone(jobID string) string    { return "jobs/" + jobID + "/done" }

// Control verbs written to the job's etcd control key.
const (
	controlHalt      = "HALT"
	controlResume    = "RESUME"
	controlTerminate = "TERMINATE"
)

// kube object name helpers.
func guardianJobName(jobID string) string  { return "guardian-" + jobID }
func learnerSetName(jobID string) string   { return "learner-" + jobID }
func helperDeployName(jobID string) string { return "lhelper-" + jobID }
func netpolName(jobID string) string       { return "netpol-" + jobID }
