package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
)

// lcmReplica is one Lifecycle Manager instance. "The LCM is responsible
// for the job from submission to completion or failure" (§3.3), but it
// delegates the multi-step deployment to a per-job Guardian (a K8s Job)
// so the LCM itself stays stateless and crash-tolerant.
type lcmReplica struct{ *replica }

func newLCMReplica(p *Platform, index int) (*lcmReplica, error) {
	l := &lcmReplica{}
	l.replica = &replica{
		p: p, index: index, kind: "lcm", service: ServiceLCM,
		delay: p.cfg.LCMRestartDelay, routes: l.routes,
	}
	if err := l.start(); err != nil {
		return nil, err
	}
	if index == 0 {
		// One logical deploy loop: it launches a Guardian for every
		// PENDING event on the status bus — the one deploy hand-off, from
		// the API or the tenant dispatcher alike — and re-launches those
		// a scan finds missing. Every replica could run this safely —
		// guardian creation is idempotent — but one keeps logs quiet. It
		// is a platform goroutine, so it outlives this replica's RPC
		// server crashing and restarting.
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			l.recoveryLoop()
		}()
	}
	return l, nil
}

func (l *lcmReplica) routes(srv *rpc.Server) {
	srv.Register("LCM.Halt", JobArgs{}, l.handleControl(controlHalt))
	srv.Register("LCM.Resume", JobArgs{}, l.handleControl(controlResume))
	srv.Register("LCM.Terminate", JobArgs{}, l.handleTerminate)
}

// ensureGuardian creates the job's Guardian: "The LCM simply instantiates
// this delegate called the Guardian with all the metadata of the DL
// job ... a K8S Job ... a very quick single step process" (§3.3). Its
// callers hold evidence the job is admitted and live — a PENDING bus
// event or a recovery-scan hit — or a Guardian Job kube marked Failed,
// so only resurrection re-reads the job. kube deletes a Guardian's Job
// once its pod succeeds, so a caller whose evidence went stale as the
// job finished creates a Guardian for a terminal job: it finds the
// terminal status, tears down, exits 0 and is deleted in turn. It
// reports false when a resurrection could not read the job's status
// because the store did not answer; the caller retries.
func (l *lcmReplica) ensureGuardian(jobID string) bool {
	name := guardianJobName(jobID)
	if obj, exists := l.p.Kube.Store().Get(kube.KindJob, name); exists {
		j, ok := obj.(*kube.Job)
		if !ok || !j.Failed {
			return true // idempotent: the guardian is alive
		}
		// The guardian burned through its restart budget — a sustained
		// crash loop (chaos node/pod kills, a long store outage at pod
		// start) can exhaust any finite backoff — but the DL job is not
		// terminal, so nobody is left to drive it. Resurrect the
		// guardian with a fresh Job object rather than strand the job;
		// its steps are idempotent and roll back (§3.3), so a fresh
		// incarnation is always safe.
		status, err := l.p.jobStatus(jobID)
		if err != nil {
			return !mongoOutageErr(err)
		}
		if status.Terminal() || status == StatusHalted || status == StatusQueued {
			return true
		}
		l.p.Kube.Store().Delete(kube.KindJob, name)
		l.p.Metrics.Inc("lcm.guardian_resurrections")
	}
	var deployStart time.Time
	if l.p.Tracer != nil {
		deployStart = l.p.clock.Now()
	}
	l.p.Kube.Store().Put(kube.KindJob, name, &kube.Job{
		Name:         name,
		BackoffLimit: 20, // guardians are cheap; keep retrying
		Template: kube.PodSpec{
			// "Guardians consume only a fraction of a CPU and need
			// little RAM" (§3.7).
			Demand:      sched.Resources{MilliCPU: 100, MemoryMB: 128},
			Runtime:     runtimeGuardian,
			RuntimeArgs: map[string]string{"job": jobID},
			Type:        PodTypeGuardian,
		},
	})
	if l.p.Tracer != nil {
		l.p.Tracer.Sub(jobID, "lcm.deploy", deployStart, l.p.clock.Now())
	}
	return true
}

// handleControl writes HALT/RESUME to the job's etcd control key, where
// its Guardian observes it.
func (l *lcmReplica) handleControl(verb string) rpc.Handler {
	return func(_ context.Context, arg any) (any, error) {
		req := arg.(JobArgs)
		status, err := l.p.jobStatus(req.JobID)
		if err != nil {
			return nil, err
		}
		if status.Terminal() {
			return nil, fmt.Errorf("core: job %s already %s", req.JobID, status)
		}
		_, err = l.p.tracedPut(req.JobID, keyControl(req.JobID), []byte(verb))
		return nil, err
	}
}

// handleTerminate cancels a job at whatever stage it is in.
func (l *lcmReplica) handleTerminate(_ context.Context, arg any) (any, error) {
	req := arg.(JobArgs)
	status, err := l.p.jobStatus(req.JobID)
	if err != nil {
		return nil, err
	}
	if status.Terminal() {
		return nil, nil
	}
	if status == StatusQueued || status == StatusPending {
		// No guardian yet: cancel directly. (The tenant dispatcher
		// drops a canceled QUEUED job on the terminal bus event.)
		return nil, l.p.setJobStatus(req.JobID, StatusCanceled, "terminated by user before deployment")
	}
	_, err = l.p.tracedPut(req.JobID, keyControl(req.JobID), []byte(controlTerminate))
	return nil, err
}

// recoveryLoop deploys admitted jobs that have no Guardian and
// resurrects Guardians kube gave up on. It keeps no ticker. It wakes on
// the job-status event bus — a job's PENDING event arrives the moment
// the API (open admission) or the tenant dispatcher (tenancy) persists
// it, and that event is the deploy hand-off; nothing calls the LCM to
// deploy — and on the kube Job watch, where a Guardian Job marked Failed
// has exhausted its restart backoff (a sustained crash loop: chaos
// node/pod kills, a long store outage at pod start). Each watch closes
// rather than drop an event, and the loop answers a close by
// re-watching, then scanning MongoDB; it scans at boot too, for jobs
// persisted before its watches opened. The scan is also the "in the
// case of a failure that necessitates that the entire job be restarted,
// information stored in MongoDB can be used readily without the need
// for user intervention" path (§3.2). A scan or a resurrection the
// store did not answer is retried PollInterval*10 later.
//
// The scan covers every admitted, non-terminal, non-HALTED status, not
// just PENDING: on a cold restart of a durable (DataDir) platform the
// reopened metadata store holds jobs that were DEPLOYING or PROCESSING
// when the process died — they lost their Guardians with the rest of
// the kube state, and only this scan brings them back. It is
// idempotent — ensureGuardian no-ops while the job's Guardian kube Job
// is alive, a Guardian raced by the job's end exits at once (see
// ensureGuardian), and setJobStatus admits re-entrant DEPLOYING from
// every scanned state. HALTED stays excluded: a halted job resumes only
// on the user's RESUME verb; QUEUED stays excluded: admission belongs
// to the tenant dispatcher.
func (l *lcmReplica) recoveryLoop() {
	guardians := l.p.Kube.Store().Watch(kube.KindJob)
	events, cancel := l.p.bus.subscribe("", 256)
	defer func() {
		guardians.Cancel()
		cancel()
	}()
	var retry <-chan time.Time
	arm := func() {
		if retry == nil {
			retry = l.p.clock.After(l.p.cfg.PollInterval * 10)
		}
	}
	scan := func() {
		answered := true
		for _, st := range admittedStatuses {
			// One indexed equality query per status keeps the scan off
			// the full-collection path (status is an indexed field).
			docs := l.p.Jobs.Find(mongo.Filter{"status": string(st)}, mongo.FindOpts{})
			answered = answered && docs != nil // nil: the store did not answer
			for _, d := range docs {
				if id, _ := d["_id"].(string); id != "" {
					answered = l.ensureGuardian(id) && answered
				}
			}
		}
		if !answered {
			arm()
		}
	}
	scan()
	for {
		select {
		case <-l.p.stopCh:
			return
		case ev, ok := <-events:
			switch {
			case !ok:
				events, cancel = l.p.bus.subscribe("", 256)
				scan()
			case ev.Entry.Status == StatusPending:
				l.ensureGuardian(ev.JobID)
			}
		case ev, ok := <-guardians.Events():
			switch j, _ := ev.Object.(*kube.Job); {
			case !ok:
				guardians = l.p.Kube.Store().Watch(kube.KindJob)
				scan()
			case j != nil && j.Failed:
				if !l.ensureGuardian(j.Template.RuntimeArgs["job"]) {
					arm()
				}
			}
		case <-retry:
			retry = nil
			scan()
		}
	}
}

// manifestGang converts a manifest to the scheduler's gang shape for
// admission accounting.
func manifestGang(m *Manifest, jobID string) *sched.Gang {
	g := &sched.Gang{JobID: jobID, User: m.User}
	for i := 0; i < m.Learners; i++ {
		g.Pods = append(g.Pods, sched.PodSpec{
			Name:    fmt.Sprintf("%s-l%d", jobID, i),
			JobID:   jobID,
			Demand:  m.LearnerDemand(),
			GPUType: string(m.GPUType),
		})
	}
	return g
}
