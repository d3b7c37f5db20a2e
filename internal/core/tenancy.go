package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// This file wires the tenant subsystem (internal/tenant) into the
// platform: the dispatcher's Backend over MongoDB/LCM, and the event
// pumps that turn the platform's existing watch fabric into dispatcher
// wake-ups — job status transitions from the status bus and cluster
// capacity from the kube node watch; quota writes reach the dispatcher
// straight from handleSetQuota. Each is an event path only; the
// dispatcher's resync tick re-reads the durable stores, so a dropped
// event delays work, never loses it.

// startTenancy boots the registry, admission controller and dispatcher.
func (p *Platform) startTenancy(tc *TenancyConfig) error {
	p.Tenants = tenant.NewRegistry(p.Mongo)
	for _, rec := range tc.Quotas {
		if err := p.Tenants.Put(rec); err != nil {
			return fmt.Errorf("core: seed tenant quota: %w", err)
		}
	}
	p.Admission = sched.NewAdmission(0)
	resync := tc.ResyncInterval
	if resync <= 0 {
		resync = p.cfg.PollInterval * 10
	}
	var instruments *obs.Registry
	if !p.cfg.DisableObs {
		instruments = p.Obs
	}
	p.Dispatcher = tenant.NewDispatcher(tenant.Config{
		Clock:             p.clock,
		Backend:           &tenantBackend{p: p, lcm: newDispatchBalancer(p)},
		Registry:          p.Tenants,
		Admission:         p.Admission,
		ResyncInterval:    resync,
		DisablePreemption: tc.DisablePreemption,
		Obs:               instruments,
	})

	// Cluster capacity pump: the admission budget tracks total GPU
	// capacity, updated from node add/remove/resize watch events (the
	// same store watch the scheduler's freed-capacity wake rides).
	// Heartbeat-only node updates are filtered out by the capacity
	// comparison below.
	nodeWatch := p.Kube.Store().Watch(kube.KindNode)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer nodeWatch.Cancel()
		p.nodeCapacityLoop(nodeWatch)
	}()

	// Status pump: QUEUED enqueues, HALTED releases/requeues victims,
	// RESUMED restores footprints, terminal transitions release and
	// free the budget. Every status writer of the platform publishes
	// on this bus, so this stays correct multi-replica.
	events, cancel := p.bus.subscribe("", 256)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer cancel()
		p.tenancyStatusPump(events)
	}()

	p.Dispatcher.Start()
	return nil
}

// nodeCapacityLoop folds node watch events into the admission budget.
func (p *Platform) nodeCapacityLoop(w *kube.StoreWatch) {
	apply := func() {
		_, capacity := p.Kube.GPUUtilization()
		if capacity == 0 {
			// Admission's 0 means "unlimited"; a nodeless cluster must
			// admit nothing until capacity actually appears.
			capacity = -1
		}
		p.Dispatcher.SetClusterGPUs(capacity)
	}
	apply()
	// Slow safety tick: node events are low-churn, but a dropped one
	// would otherwise leave the budget stale indefinitely.
	ticker := p.clock.NewTicker(p.cfg.PollInterval * 20)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case ev, ok := <-w.Events():
			if !ok {
				return
			}
			if !nodeCapacityChanged(ev) {
				continue // heartbeat or status-only churn
			}
			apply()
		case <-ticker.C:
			apply()
		}
	}
}

// nodeCapacityChanged reports whether a node event can move total GPU
// capacity.
func nodeCapacityChanged(ev kube.WatchEvent) bool {
	prev, _ := ev.Prev.(*kube.Node)
	next, _ := ev.Object.(*kube.Node)
	if prev == nil || next == nil {
		return true // add or delete
	}
	return prev.Capacity.GPUs != next.Capacity.GPUs
}

// tenancyStatusPump translates status bus events into dispatcher notes.
func (p *Platform) tenancyStatusPump(events <-chan StatusEvent) {
	for {
		select {
		case <-p.stopCh:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			switch st := ev.Entry.Status; {
			case st == StatusQueued:
				if j, err := p.tenantJob(ev.JobID); err == nil {
					p.Dispatcher.NoteQueued(j)
				}
			case st == StatusHalted:
				p.Dispatcher.NoteHalted(ev.JobID)
			case st == StatusResumed:
				p.clearPreempted(ev.JobID)
				if j, err := p.tenantJob(ev.JobID); err == nil {
					p.Dispatcher.NoteResumed(j)
				}
			case st.Terminal():
				p.clearPreempted(ev.JobID)
				p.Dispatcher.NoteTerminal(ev.JobID)
			}
		}
	}
}

// tenantJob builds the dispatcher's view of a job from its document.
func (p *Platform) tenantJob(jobID string) (tenant.Job, error) {
	doc, err := p.Jobs.FindOne(mongo.Filter{"_id": jobID})
	if err != nil {
		return tenant.Job{}, err
	}
	return tenantJobFromDoc(doc), nil
}

func tenantJobFromDoc(doc mongo.Doc) tenant.Job {
	rec := docToRecord(doc)
	j := tenant.Job{
		ID:   rec.ID,
		User: rec.Manifest.User,
		Gang: manifestGang(&rec.Manifest, rec.ID),
	}
	if ts, ok := doc["submitted"].(string); ok {
		j.Submitted, _ = time.Parse(time.RFC3339Nano, ts)
	}
	return j
}

// clearPreempted drops the durable preemption marker once a victim has
// resumed or terminated.
func (p *Platform) clearPreempted(jobID string) {
	p.Jobs.UpdateOne(mongo.Filter{"_id": jobID, "preempted": true}, //nolint:errcheck // marker may not exist
		mongo.Update{Set: mongo.Doc{"preempted": false}})
}

// newDispatchBalancer builds the dispatcher's LCM balancer with the
// lcm resilience policy installed: preempt/resume signals retry
// transient LCM failures with backoff, and a dead LCM trips the edge's
// one breaker so dispatch passes shed instead of piling goroutines
// behind it.
func newDispatchBalancer(p *Platform) *rpc.Balancer {
	b := rpc.NewBalancer(p.Registry, ServiceLCM)
	b.Use(p.res.lcm)
	return b
}

// tenantBackend implements tenant.Backend over the platform: MongoDB
// for durable job state, the LCM (via RPC, like any other client of the
// halt path) for preempt/resume.
type tenantBackend struct {
	p   *Platform
	lcm *rpc.Balancer
}

// Dispatch hands an admitted job to the LCM by moving it QUEUED →
// PENDING; the LCM recovery loop wakes on the PENDING bus event and
// creates the Guardian, exactly as for a directly submitted job. The
// transition is strict: a job that is no longer QUEUED (a stale bus
// echo re-enqueued it after a resync already dispatched it) errors
// instead of vacuously succeeding, so the dispatcher's dispatch and
// queue-delay accounting never double-counts.
func (b *tenantBackend) Dispatch(jobID string) error {
	if status, err := b.p.jobStatus(jobID); err != nil {
		return err
	} else if status != StatusQueued {
		return fmt.Errorf("core: job %s is %s, not QUEUED", jobID, status)
	}
	return b.p.setJobStatus(jobID, StatusPending, "admitted by tenant dispatcher")
}

// Preempt checkpoints and halts a running job through the existing LCM
// halt path (control verb in etcd, Guardian deletes the learner set,
// learners leave their checkpoint behind). The durable preempted marker
// is written first so a dispatcher restart still knows to requeue the
// victim when its HALTED transition lands.
func (b *tenantBackend) Preempt(jobID string) error {
	if err := b.p.Jobs.UpdateOne(mongo.Filter{"_id": jobID},
		mongo.Update{Set: mongo.Doc{"preempted": true}}); err != nil {
		return err
	}
	b.asyncLCM("LCM.Halt", jobID)
	return nil
}

// asyncLCM issues an LCM control RPC off the caller's goroutine. The
// dispatcher invokes Preempt/Resume while holding its mutex — with
// Position() (API status of queued jobs) and the status pump behind it
// — so a wedged LCM (e.g. blocked on an etcd quorum outage) must never
// stall dispatch or user-facing status reads. Outcomes are not needed
// synchronously: the halt/resume signals are level-triggered — the
// HALTED/RESUMED bus events report success, and the dispatcher's
// resync re-issues signals whose effect never appeared. The wall-clock
// timeout is a goroutine-liveness bound, not a modeled latency.
func (b *tenantBackend) asyncLCM(method, jobID string) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.lcm.Call(ctx, method, JobArgs{JobID: jobID}, nil) //nolint:errcheck // resync re-issues
	}()
}

// Resume restarts a halted victim from its latest checkpoint via the
// LCM (asynchronously — see asyncLCM). If the signal is lost, the
// victim stays HALTED with its preempted marker set, so the next
// resync requeues it and retries. The marker is cleared when the
// RESUMED transition lands (tenancyStatusPump), keeping it truthful if
// this call races a user terminate.
func (b *tenantBackend) Resume(jobID string) error {
	b.asyncLCM("LCM.Resume", jobID)
	return nil
}

// Fail permanently rejects a queued job.
func (b *tenantBackend) Fail(jobID, reason string) error {
	return b.p.setJobStatus(jobID, StatusFailed, "admission rejected: "+reason)
}

// Lookup fetches the dispatcher view from MongoDB.
func (b *tenantBackend) Lookup(jobID string) (tenant.Job, error) {
	return b.p.tenantJob(jobID)
}

// Phase maps the job status machine onto the dispatcher's phases.
func (b *tenantBackend) Phase(jobID string) (tenant.Phase, error) {
	status, err := b.p.jobStatus(jobID)
	if err != nil {
		return 0, err
	}
	switch {
	case status == StatusQueued:
		return tenant.PhaseQueued, nil
	case status == StatusHalted:
		return tenant.PhaseHalted, nil
	case status.Terminal():
		return tenant.PhaseTerminal, nil
	default:
		return tenant.PhaseRunning, nil
	}
}

// PendingWork lists, from MongoDB, the jobs awaiting the dispatcher:
// QUEUED submissions (FCFS order is restored from their submission
// timestamps) and preempted victims that have reached their checkpoint.
func (b *tenantBackend) PendingWork() (queued, preempted []tenant.Job) {
	for _, d := range b.p.Jobs.Find(mongo.Filter{"status": string(StatusQueued)}, mongo.FindOpts{SortBy: "_id"}) {
		queued = append(queued, tenantJobFromDoc(d))
	}
	for _, d := range b.p.Jobs.Find(mongo.Filter{
		"status": string(StatusHalted), "preempted": true,
	}, mongo.FindOpts{SortBy: "_id"}) {
		preempted = append(preempted, tenantJobFromDoc(d))
	}
	return queued, preempted
}
