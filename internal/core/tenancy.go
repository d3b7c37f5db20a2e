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

// tenancyStatusPump translates status bus events into dispatcher notes,
// reading the job for those that carry it outside the dispatcher's lock.
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
				p.Dispatcher.NoteQueued(p.tenantJob(ev.JobID))
			case st == StatusHalted:
				p.Dispatcher.NoteHalted(p.tenantJob(ev.JobID))
			case st == StatusResumed:
				p.Dispatcher.NoteResumed(p.tenantJob(ev.JobID))
			case st.Terminal():
				p.Dispatcher.NoteTerminal(ev.JobID)
			}
		}
	}
}

// tenantJob reads the dispatcher's view of a job for its event. A read
// the store does not answer yields the ID alone and arms the retry,
// whose resync lists the job.
func (p *Platform) tenantJob(jobID string) tenant.Job {
	doc, err := p.Jobs.FindOne(mongo.Filter{"_id": jobID})
	if err != nil {
		p.Dispatcher.Retry()
		return tenant.Job{ID: jobID}
	}
	return tenantJobFromDoc(doc)
}

func tenantJobFromDoc(doc mongo.Doc) tenant.Job {
	rec := docToRecord(doc)
	j := tenant.Job{
		ID:    rec.ID,
		User:  rec.Manifest.User,
		Gang:  manifestGang(&rec.Manifest, rec.ID),
		Phase: tenantPhase(rec.Status),
	}
	j.Preempted, _ = doc["preempted"].(bool)
	if ts, ok := doc["submitted"].(string); ok {
		j.Submitted, _ = time.Parse(time.RFC3339Nano, ts)
	}
	return j
}

// tenantPhase maps the job status machine onto the dispatcher's phases.
func tenantPhase(status JobStatus) tenant.Phase {
	switch {
	case status == StatusQueued:
		return tenant.PhaseQueued
	case status == StatusHalted:
		return tenant.PhaseHalted
	case status.Terminal():
		return tenant.PhaseTerminal
	default:
		return tenant.PhaseRunning
	}
}

// clearPreempted drops the durable preemption marker of a HALTED job
// before its user resumes it, which takes a victim out of the
// dispatcher's hands, and reports whether it did. A job still running
// keeps it: its halt may be in flight. A finished job keeps it too:
// only listings of jobs that are not terminal read it.
func (p *Platform) clearPreempted(jobID string) bool {
	return p.Jobs.UpdateOne(mongo.Filter{"_id": jobID, "preempted": true, "status": string(StatusHalted)},
		mongo.Update{Set: mongo.Doc{"preempted": false}}) == nil
}

// markPreempted writes a job's durable preemption marker.
func (p *Platform) markPreempted(jobID string, on bool) error {
	return p.Jobs.UpdateOne(mongo.Filter{"_id": jobID}, mongo.Update{Set: mongo.Doc{"preempted": on}})
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
// is written first, so the HALTED transition requeues the victim even
// across a dispatcher restart.
func (b *tenantBackend) Preempt(jobID string) error {
	return b.signal(jobID, true, "LCM.Halt")
}

// Resume clears the marker under the dispatcher's lock, so no resync
// halts the resumed victim, then restarts it from its latest checkpoint.
func (b *tenantBackend) Resume(jobID string) error {
	return b.signal(jobID, false, "LCM.Resume")
}

// signal writes the job's preempted marker, then issues the LCM call
// off the caller's goroutine: the dispatcher holds its mutex, and a
// wedged LCM (say, behind an etcd quorum outage) must not stall
// dispatch or the API's queue-position reads. The HALTED/RESUMED bus
// events report success. A call that fails sets the marker, so the
// retry it arms halts a victim still running or requeues one still
// HALTED. The wall-clock timeout bounds the goroutine's life, not a
// modeled latency.
func (b *tenantBackend) signal(jobID string, preempted bool, method string) error {
	if err := b.p.markPreempted(jobID, preempted); err != nil {
		return err
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if b.lcm.Call(ctx, method, JobArgs{JobID: jobID}, nil) != nil {
			b.p.markPreempted(jobID, true) //nolint:errcheck // a victim left unmarked stays HALTED until its user resumes it
			b.p.Dispatcher.Retry()
		}
	}()
	return nil
}

// Fail permanently rejects a queued job.
func (b *tenantBackend) Fail(jobID, reason string) error {
	return b.p.setJobStatus(jobID, StatusFailed, "admission rejected: "+reason)
}

// Phase reads where a job is now.
func (b *tenantBackend) Phase(jobID string) (tenant.Phase, error) {
	status, err := b.p.jobStatus(jobID)
	if err != nil {
		return 0, err
	}
	return tenantPhase(status), nil
}

// PendingWork lists, from MongoDB, the jobs the dispatcher reconciles:
// QUEUED submissions (FCFS order is restored from their submission
// timestamps), then HALTED and every admitted status, one indexed query
// per status. The queries run in lifecycle order, so a job that moves
// forward during the listing is still listed. A query the store does
// not answer makes both lists nil.
func (b *tenantBackend) PendingWork() (queued, active []tenant.Job) {
	active = []tenant.Job{}
	for _, st := range append([]JobStatus{StatusQueued, StatusHalted}, admittedStatuses...) {
		docs := b.p.Jobs.Find(mongo.Filter{"status": string(st)}, mongo.FindOpts{})
		if docs == nil {
			return nil, nil
		}
		for _, d := range docs {
			if st == StatusQueued {
				queued = append(queued, tenantJobFromDoc(d))
			} else {
				active = append(active, tenantJobFromDoc(d))
			}
		}
	}
	return queued, active
}
