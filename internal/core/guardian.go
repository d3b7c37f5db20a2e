package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/resilience"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// The Guardian is FfDL's per-job delegate (§3.3): a Kubernetes Job the
// LCM creates for every DL job. It executes the multi-step deployment
// atomically (rolling back partial deployments, including those left by
// a crashed previous incarnation), then monitors the job to completion.
// Because it runs as a K8s Job, kube restarts it automatically on any
// crash, and FfDL's dependability story reduces to "the Guardian's
// steps are idempotent and roll back".

// deployAttempts is the Guardian's rollback-retry budget: a failed
// deployment is "repeated for a (configurable) number of times before
// the Guardian gives up" (§3.3).
const deployAttempts = 3

// runGuardian is the Guardian pod's process.
func (p *Platform) runGuardian(ctx *kube.PodContext) int {
	jobID := ctx.Pod.Spec.RuntimeArgs["job"]
	if jobID == "" {
		return 1
	}
	doc, err := p.findJob(jobID)
	if err != nil {
		return 1 // metadata gone or store unavailable; let the Job back off
	}
	rec := docToRecord(doc)
	if rec.Status.Terminal() {
		// Restarted after the job finished: just make sure nothing
		// lingers.
		p.teardownJob(jobID)
		return 0
	}

	// Roll back whatever a crashed predecessor half-deployed: "The
	// restarted Guardian will roll back the previous partially deployed
	// DL job and start a fresh deployment process" (§3.3).
	if ctx.Pod.Status.Restarts > 0 || p.hasDeployedObjects(jobID) {
		p.rollbackJob(jobID)
		p.Metrics.Inc("guardian.rollbacks")
	}

	// Deploy with bounded retries, a jittered backoff apart on the
	// platform clock, so the retries of a burst that overloaded NFS
	// provisioning meet neither the same load nor each other. The
	// jitter's RNG is seeded from the job at the first retry.
	var rng *sim.RNG
	var deployErr error
	for attempt := 0; attempt < deployAttempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				h := fnv.New64a()
				h.Write([]byte(jobID))
				rng = sim.NewRNG(p.cfg.Seed ^ int64(h.Sum64()))
			}
			if !p.deployRetryWait(ctx.Stop, attempt-1, rng) {
				return 137
			}
		}
		select {
		case <-ctx.Stop:
			return 137
		default:
		}
		deployErr = p.deployJob(jobID, rec.Manifest)
		if deployErr == nil {
			break
		}
		p.rollbackJob(jobID)
		p.Metrics.Inc("guardian.deploy_retries")
	}
	if deployErr != nil {
		if err := p.setJobStatus(jobID, StatusFailed, fmt.Sprintf("deployment failed after %d attempts: %v", deployAttempts, deployErr)); err != nil && mongoOutageErr(err) {
			// The store did not answer, so the failure cannot be
			// recorded — and a deploy that failed *because* of the
			// outage (the DEPLOYING transition errors too) deserves a
			// retry, not a verdict. Roll back and let kube restart the
			// guardian with backoff.
			p.rollbackJob(jobID)
			return 1
		}
		p.teardownJob(jobID)
		return 0
	}
	return p.monitorJob(ctx, jobID, rec.Manifest)
}

// deployRetryWait waits out the jittered backoff before deploy retry
// #retry (0-based) on the platform clock. It reports false if the pod
// was stopped first.
func (p *Platform) deployRetryWait(stop <-chan struct{}, retry int, rng *sim.RNG) bool {
	backoff := resilience.Backoff{Base: 10 * p.cfg.PollInterval, Jitter: 0.5}
	t := p.clock.NewTimer(backoff.Delay(retry, rng))
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// hasDeployedObjects reports whether any of the job's kube objects
// exist (evidence of a partial prior deployment).
func (p *Platform) hasDeployedObjects(jobID string) bool {
	st := p.Kube.Store()
	if _, ok := st.Get(kube.KindStatefulSet, learnerSetName(jobID)); ok {
		return true
	}
	if _, ok := st.Get(kube.KindDeployment, helperDeployName(jobID)); ok {
		return true
	}
	if _, ok := st.Get(kube.KindNetworkPolicy, netpolName(jobID)); ok {
		return true
	}
	return false
}

// deployJob performs the multi-step provisioning (§3.3): shared volume,
// network policy, helper pod, then the learner stateful set with gang
// information. Any error leaves rollback to the caller.
func (p *Platform) deployJob(jobID string, m Manifest) error {
	if err := p.setJobStatus(jobID, StatusDeploying, "guardian deploying job"); err != nil {
		return err
	}
	// Step 1: shared NFS volume (the helper<->learner channel).
	vol, err := p.NFS.Provision(jobID)
	if err != nil {
		return fmt.Errorf("provision volume: %w", err)
	}
	// Step 2: data-plane handles.
	if m.ResultBucket == "" {
		m.ResultBucket = "ffdl-results"
	}
	p.Store.EnsureBucket(m.ResultBucket)
	res := &jobResources{manifest: m, volume: vol, logFrom: p.Metrics.nextLine(jobID)}
	if m.DataBucket != "" {
		res.mount = p.Store.NewMount(m.DataBucket, 256<<20)
	}
	p.putResources(jobID, res)

	st := p.Kube.Store()
	// Step 3: network isolation (§3.3: "applying K8S policies to
	// restrict network access from the learner in a multi-tenant
	// environment").
	st.Put(kube.KindNetworkPolicy, netpolName(jobID), &kube.NetworkPolicy{
		Name: netpolName(jobID), JobID: jobID, AllowWithinJob: true,
	})
	// Step 4: helper pod (controller, load-data, store-results,
	// log-collector), deployed separately from the learners (§3.8).
	st.Put(kube.KindDeployment, helperDeployName(jobID), &kube.Deployment{
		Name: helperDeployName(jobID), Replicas: 1,
		Template: kube.PodSpec{
			Demand:      sched.Resources{MilliCPU: 500, MemoryMB: 512},
			Runtime:     runtimeHelper,
			RuntimeArgs: map[string]string{"job": jobID},
			Type:        PodTypeHelper,
			JobID:       jobID,
		},
	})
	// Step 5: learners as a stateful set carrying gang name + size.
	p.putLearnerSet(jobID, m)
	return nil
}

// putLearnerSet creates the job's learner stateful set, at deployment
// and again on RESUME.
func (p *Platform) putLearnerSet(jobID string, m Manifest) {
	p.Kube.Store().Put(kube.KindStatefulSet, learnerSetName(jobID), &kube.StatefulSet{
		Name: learnerSetName(jobID), Replicas: m.Learners,
		Template: kube.PodSpec{
			Demand:      m.LearnerDemand(),
			GPUType:     string(m.GPUType),
			JobID:       jobID,
			GangSize:    m.Learners,
			Runtime:     runtimeLearner,
			RuntimeArgs: map[string]string{"job": jobID},
			Type:        PodTypeLearner,
		},
	})
}

// releaseJob deletes every deployed object of a job and its NFS volume
// — "there should not be an inactive job component with allocated
// resources (i.e. a zombie)" (§3.3).
func (p *Platform) releaseJob(jobID string) {
	st := p.Kube.Store()
	st.Delete(kube.KindStatefulSet, learnerSetName(jobID))
	st.Delete(kube.KindDeployment, helperDeployName(jobID))
	st.Delete(kube.KindNetworkPolicy, netpolName(jobID))
	if res, ok := p.getResources(jobID); ok {
		p.NFS.Release(res.volume)
		p.dropResources(jobID)
	}
}

// rollbackJob undoes a partial deployment so a fresh one starts clean:
// the deployed objects and the stale coordination state go, the control
// key stays — HALT/TERMINATE must survive a redeploy.
func (p *Platform) rollbackJob(jobID string) {
	p.releaseJob(jobID)
	p.Etcd.DeletePrefix(keyJobPrefix(jobID) + "learners/") //nolint:errcheck
	p.Etcd.Delete(keyDone(jobID))                          //nolint:errcheck
}

// teardownJob removes all traces of a finished job: kube objects, the
// NFS volume and its whole etcd subtree in one delete ("a DL job's data
// is erased after it terminates", §3.2). MongoDB keeps the status
// history.
func (p *Platform) teardownJob(jobID string) {
	p.releaseJob(jobID)
	p.Etcd.DeletePrefix(keyJobPrefix(jobID)) //nolint:errcheck
}

// monitorJob is the Guardian's steady-state loop. It subscribes to the
// job's etcd prefix — learner statuses, the control key, the done key —
// and re-evaluates the job on every write, the reactive posture the
// paper describes ("controllers record learner state in etcd and other
// components watch those keys", §3.3/§3.8). The check itself is
// level-triggered (it re-reads state rather than trusting event
// payloads), so an event and a closed stream both just mean "look
// again", and no event ordering subtlety can wedge a job. A retry timer
// (PollInterval*10) runs only while something no event will bring back
// is due: a re-watch that failed, or an evaluation a store error cut
// short. A job whose watch is healthy holds no timer: the watch
// delivers every write or closes.
func (p *Platform) monitorJob(ctx *kube.PodContext, jobID string, m Manifest) int {
	var ws *etcd.WatchStream
	var events <-chan etcd.Event
	// attach (re)establishes the prefix subscription; a failure (e.g. a
	// guardian starting mid leader-election) is retried on the timer.
	attach := func() {
		if w, err := p.Etcd.Watch(keyJobPrefix(jobID), true, 0); err == nil {
			ws = w
			events = w.Events()
		}
	}
	attach()
	var retry *sim.Timer
	defer func() {
		if ws != nil {
			ws.Cancel()
		}
		if retry != nil {
			retry.Stop()
		}
	}()
	halted, check := false, true
	for {
		if check {
			p.Metrics.Inc("guardian.checks")
			code, done, complete := p.checkJob(jobID, m, &halted)
			if done {
				return code
			}
			check = false
			if retry == nil && (!complete || ws == nil) {
				retry = p.clock.NewTimer(p.cfg.PollInterval * 10)
			}
		}
		var retryC <-chan time.Time
		if retry != nil {
			retryC = retry.C
		}
		select {
		case <-ctx.Stop:
			return 137 // guardian killed; kube restarts it
		case _, ok := <-events:
			// Coalesce the burst: one re-check covers all queued writes.
			if !ok || sim.Coalesce(events, nil) {
				// The stream closed (leader change, overflow) and may
				// have missed a write: re-watch before the re-check so
				// none goes unread.
				ws.Cancel()
				ws, events = nil, nil
				attach()
			}
			check = true
		case <-retryC:
			retry = nil
			if ws == nil {
				attach()
			}
			check = true
		}
	}
}

// checkJob runs one level-triggered evaluation of the job's etcd state:
// control verbs, completion, learner-status aggregation. done=true means
// the guardian's work is over and the pod should exit with code.
// complete=false means a store error cut the evaluation short — an etcd
// read failed, or MongoDB did not record a transition — so the caller
// evaluates again later.
func (p *Platform) checkJob(jobID string, m Manifest, halted *bool) (code int, done, complete bool) {
	// Control verbs.
	kv, ok, err := p.Etcd.Get(keyControl(jobID))
	if err != nil {
		return 0, false, false
	}
	if ok {
		switch string(kv.Value) {
		case controlTerminate:
			if err := p.setJobStatus(jobID, StatusCanceled, "terminated by user"); err != nil && mongoOutageErr(err) {
				// The terminal transition could not be recorded (store
				// outage): keep the guardian alive so the next check
				// retries. Tearing down now would strand the job
				// non-terminal forever.
				return 0, false, false
			}
			p.teardownJob(jobID)
			return 0, true, true
		case controlHalt:
			if !*halted {
				p.Kube.Store().Delete(kube.KindStatefulSet, learnerSetName(jobID))
				p.Etcd.DeletePrefix(keyJobPrefix(jobID) + "learners/") //nolint:errcheck
				if err := p.setJobStatus(jobID, StatusHalted, "halted by user; checkpoint retained"); err != nil && mongoOutageErr(err) {
					// Not recorded: leave *halted false so the next check
					// re-runs this (idempotent) branch once the store
					// answers — the dispatcher needs the HALTED event to
					// requeue the victim.
					return 0, false, false
				}
				*halted = true
			}
		case controlResume:
			if *halted {
				if err := p.setJobStatus(jobID, StatusResumed, "resumed from latest checkpoint"); err != nil && mongoOutageErr(err) {
					return 0, false, false // retry once the store answers
				}
				*halted = false
				p.putLearnerSet(jobID, m)
			}
		}
	}
	if *halted {
		return 0, false, true
	}

	// Completion. The terminal transition must be durably recorded
	// before teardown: if the metadata store does not answer, the done
	// key stays in place and the next evaluation retries — otherwise a
	// store outage at exactly the wrong moment would strand the job
	// non-terminal with its guardian gone.
	kv, ok, err = p.Etcd.Get(keyDone(jobID))
	if err != nil {
		return 0, false, false
	}
	if ok {
		code, _ := strconv.Atoi(string(kv.Value))
		var err error
		if code == 0 {
			p.setJobStatus(jobID, StatusStoring, "storing trained model and logs") //nolint:errcheck
			err = p.setJobStatus(jobID, StatusCompleted, "training completed")
		} else {
			err = p.setJobStatus(jobID, StatusFailed, fmt.Sprintf("learner failed with exit code %d", code))
		}
		if err != nil && mongoOutageErr(err) {
			return 0, false, false
		}
		p.teardownJob(jobID)
		return 0, true, true
	}

	// Aggregate learner statuses: the job is as far along as its
	// slowest learner ("The Guardian aggregates the statuses of
	// each learner to record the overall status of the job in
	// MongoDB", §3.8).
	kvs, err := p.Etcd.List(keyJobPrefix(jobID) + "learners/")
	if err != nil {
		return 0, false, false
	}
	if agg, ok := aggregateLearnerStatus(kvs, m.Learners); ok {
		if err := p.setJobStatus(jobID, agg, "aggregated from learner statuses"); err != nil && mongoOutageErr(err) {
			return 0, false, false
		}
	}
	return 0, false, true
}

// aggregateLearnerStatus folds per-learner etcd statuses into one job
// status.
func aggregateLearnerStatus(kvs []etcd.KV, learners int) (JobStatus, bool) {
	worst := statusRank(StatusCompleted) + 1
	seen := 0
	for _, kv := range kvs {
		var st JobStatus
		switch string(kv.Value) {
		case "DOWNLOADING", "WAITING_FOR_PEERS":
			st = StatusDownloading
		case "PROCESSING":
			st = StatusProcessing
		case "STORING", "COMPLETED":
			st = StatusStoring
		default:
			// FAILED included: failure is surfaced through the done key
			// with its exit code.
			continue
		}
		seen++
		if r := statusRank(st); r < worst {
			worst = r
		}
	}
	if seen < learners {
		// Not all learners reporting yet: stay in DEPLOYING.
		return "", false
	}
	switch worst {
	case statusRank(StatusDownloading):
		return StatusDownloading, true
	case statusRank(StatusProcessing):
		return StatusProcessing, true
	case statusRank(StatusStoring):
		return StatusStoring, true
	default:
		return "", false
	}
}
