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
// straight from handleSetQuota. Neither pump keeps a ticker: when the
// bus closes the status subscription the pump re-subscribes and runs a
// dispatcher Resync, which re-reads the durable stores, and the
// capacity pump re-reads capacity when its node watch closes. A read or
// LCM call that fails arms the dispatcher's one retry.

// startTenancy boots the registry, admission controller and dispatcher.
func (p *Platform) startTenancy(tc *TenancyConfig) error {
	p.Tenants = tenant.NewRegistry(p.Mongo)
	for _, rec := range tc.Quotas {
		if err := p.Tenants.Put(rec); err != nil {
			return fmt.Errorf("core: seed tenant quota: %w", err)
		}
	}
	p.Admission = sched.NewAdmission(0)
	var instruments *obs.Registry
	if !p.cfg.DisableObs {
		instruments = p.Obs
	}
	p.Dispatcher = tenant.NewDispatcher(tenant.Config{
		Clock:             p.clock,
		Backend:           &tenantBackend{p: p, lcm: newDispatchBalancer(p)},
		Registry:          p.Tenants,
		Admission:         p.Admission,
		ResyncInterval:    p.cfg.PollInterval * 10,
		DisablePreemption: tc.DisablePreemption,
		Obs:               instruments,
	})

	// Cluster capacity pump: the admission budget tracks schedulable GPU
	// capacity, recomputed on every node watch event — add, remove,
	// resize, cordon, Ready flip. Node leases are not store objects, so
	// a healthy cluster sends the pump no event.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.nodeCapacityLoop()
	}()

	// Status pump: QUEUED enqueues, HALTED releases/requeues victims,
	// RESUMED restores footprints, terminal transitions release and
	// free the budget. Every status writer of the platform publishes
	// on this bus, so this stays correct multi-replica.
	events, cancel := p.bus.subscribe("", 256)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.tenancyStatusPump(events, cancel)
	}()

	p.Dispatcher.Start()
	return nil
}

// nodeCapacityLoop folds node watch events into the admission budget.
// It keeps no ticker: when the watch closes on overflow it re-watches,
// then re-reads capacity.
func (p *Platform) nodeCapacityLoop() {
	w := p.Kube.Store().Watch(kube.KindNode)
	defer func() { w.Cancel() }()
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
	for {
		select {
		case <-p.stopCh:
			return
		case _, ok := <-w.Events():
			if !ok {
				w = p.Kube.Store().Watch(kube.KindNode)
			}
			apply()
		}
	}
}

// tenancyStatusPump translates status bus events into dispatcher notes.
// When the bus closes its subscription on overflow it re-subscribes,
// then resyncs the dispatcher to recover what the close skipped.
func (p *Platform) tenancyStatusPump(events <-chan StatusEvent, cancel func()) {
	defer func() { cancel() }()
	for {
		select {
		case <-p.stopCh:
			return
		case ev, ok := <-events:
			switch st := ev.Entry.Status; {
			case !ok:
				events, cancel = p.bus.subscribe("", 256)
				p.Dispatcher.Resync()
			case st == StatusQueued:
				if j, err := p.tenantJob(ev.JobID); err != nil {
					p.Dispatcher.Retry() // its resync reads the job from PendingWork
				} else {
					p.Dispatcher.NoteQueued(j)
				}
			case st == StatusHalted:
				p.Dispatcher.NoteHalted(ev.JobID)
			case st == StatusResumed:
				p.clearPreempted(ev.JobID)
				p.Dispatcher.NoteResumed(ev.JobID)
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
// stall dispatch or user-facing status reads. The HALTED/RESUMED bus
// events report success; a call that fails arms the dispatcher's
// retry, whose resync re-issues the halt to a victim still running and
// requeues a victim still HALTED for its resume. The wall-clock timeout
// is a goroutine-liveness bound, not a modeled latency.
func (b *tenantBackend) asyncLCM(method, jobID string) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if b.lcm.Call(ctx, method, JobArgs{JobID: jobID}, nil) != nil {
			b.p.Dispatcher.Retry()
		}
	}()
}

// Resume restarts a halted victim from its latest checkpoint via the
// LCM (asynchronously — see asyncLCM). If the call fails, the victim
// stays HALTED with its preempted marker set, so the retry's resync
// requeues it and resumes it again. The marker is cleared when the
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
// A read the store does not answer (Find's nil) arms the retry.
func (b *tenantBackend) PendingWork() (queued, preempted []tenant.Job) {
	find := func(f mongo.Filter) (jobs []tenant.Job) {
		docs := b.p.Jobs.Find(f, mongo.FindOpts{SortBy: "_id"})
		if docs == nil {
			b.p.Dispatcher.Retry()
		}
		for _, d := range docs {
			jobs = append(jobs, tenantJobFromDoc(d))
		}
		return jobs
	}
	return find(mongo.Filter{"status": string(StatusQueued)}),
		find(mongo.Filter{"status": string(StatusHalted), "preempted": true})
}
