package sched

import (
	"fmt"
	"sort"
	"sync"
)

// Tier classifies users for admission control. The paper's AC component
// preempts free users under heavy load, and over-quota jobs when the
// quota's owner returns (§3.6).
type Tier int

// User tiers.
const (
	TierFree Tier = iota + 1
	TierPaid
)

// UserQuota is a user's GPU entitlement.
type UserQuota struct {
	User string
	Tier Tier
	// GPUs is the quota ceiling; usage beyond it is admitted only
	// opportunistically.
	GPUs int
}

// AdmitDecision is the outcome of admission control.
type AdmitDecision int

// Admission outcomes.
const (
	// AdmitInQuota admits a job within its user's quota.
	AdmitInQuota AdmitDecision = iota + 1
	// AdmitOverQuota admits a job beyond quota because other users'
	// entitlements are idle; such jobs are preemptible.
	AdmitOverQuota
	// Reject denies admission (unknown user or cluster exhausted).
	Reject
)

func (d AdmitDecision) String() string {
	switch d {
	case AdmitInQuota:
		return "admit"
	case AdmitOverQuota:
		return "admit-over-quota"
	case Reject:
		return "reject"
	default:
		return "unknown"
	}
}

// runningJob tracks an admitted job's GPU footprint.
type runningJob struct {
	jobID     string
	user      string
	gpus      int
	overQuota bool
	seq       uint64
}

// Admission implements quota-based admission control with preemption.
// It sits logically above FfDL (§3.6) and decides which jobs reach the
// scheduler queue at all.
//
// Entries are keyed by job ID and both Admit and Release are
// idempotent per job, so the controller stays correct when the same job
// is admitted or released more than once — an API client retrying a
// submit against another replica, a dispatcher re-admitting after a
// resync, or duplicate terminal events from the status bus.
type Admission struct {
	mu      sync.Mutex
	quotas  map[string]UserQuota
	usage   map[string]int // user -> GPUs held by running+queued jobs
	running map[string]*runningJob
	// ClusterGPUs caps aggregate admission; 0 = unlimited. Mutate via
	// SetClusterGPUs once the controller is shared across goroutines.
	ClusterGPUs int
	admitted    int // total GPUs admitted
	seq         uint64

	preemptions int64
}

// NewAdmission returns an empty controller.
func NewAdmission(clusterGPUs int) *Admission {
	return &Admission{
		quotas:      make(map[string]UserQuota),
		usage:       make(map[string]int),
		running:     make(map[string]*runningJob),
		ClusterGPUs: clusterGPUs,
	}
}

// SetQuota installs or updates a user's quota.
func (a *Admission) SetQuota(q UserQuota) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.quotas[q.User] = q
}

// Quota returns a user's quota, if one is installed.
func (a *Admission) Quota(user string) (UserQuota, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q, ok := a.quotas[user]
	return q, ok
}

// SetClusterGPUs updates the aggregate admission cap. The tenant
// dispatcher tracks cluster capacity through this as nodes come and
// go. 0 keeps the legacy "unlimited" meaning; a negative value means
// *known-zero* capacity (a cluster that currently has no GPU nodes
// admits nothing) — without the distinction, losing the last node
// would flip the budget to unlimited.
func (a *Admission) SetClusterGPUs(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ClusterGPUs = n
}

// clusterLimitLocked normalizes ClusterGPUs: -1 for unlimited, else
// the effective non-negative cap.
func (a *Admission) clusterLimitLocked() int {
	switch {
	case a.ClusterGPUs == 0:
		return -1 // unlimited
	case a.ClusterGPUs < 0:
		return 0 // known-zero capacity
	default:
		return a.ClusterGPUs
	}
}

// ClusterCap returns the aggregate admission cap (0 = unlimited).
func (a *Admission) ClusterCap() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ClusterGPUs
}

// AdmittedGPUs returns the total GPU footprint currently admitted.
func (a *Admission) AdmittedGPUs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted
}

// Holds reports whether the job currently holds an admitted footprint.
func (a *Admission) Holds(jobID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.running[jobID]
	return ok
}

// Held returns the IDs of every job holding an admitted footprint, in
// no particular order.
func (a *Admission) Held() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.running))
	for id := range a.running {
		ids = append(ids, id)
	}
	return ids
}

// Usage returns the GPUs currently held by a user's admitted jobs.
func (a *Admission) Usage(user string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage[user]
}

// Preemptions returns the count of jobs preempted so far.
func (a *Admission) Preemptions() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.preemptions
}

// Admit decides whether a gang may enter the scheduling queue and
// registers its footprint when admitted. Admit is idempotent per job:
// re-admitting a job that already holds a footprint returns the
// original decision without double-counting, which is what keeps
// accounting correct across API replica retries and dispatcher resyncs.
func (a *Admission) Admit(g *Gang) (AdmitDecision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j, ok := a.running[g.JobID]; ok {
		if j.overQuota {
			return AdmitOverQuota, nil
		}
		return AdmitInQuota, nil
	}
	q, ok := a.quotas[g.User]
	if !ok {
		return Reject, fmt.Errorf("sched: user %q has no quota", g.User)
	}
	need := g.GPUDemand()
	if limit := a.clusterLimitLocked(); limit >= 0 && a.admitted+need > limit {
		return Reject, fmt.Errorf("sched: cluster GPU admission limit reached (%d/%d in use, %d requested)",
			a.admitted, limit, need)
	}
	over := a.usage[g.User]+need > q.GPUs
	a.seq++
	a.running[g.JobID] = &runningJob{
		jobID: g.JobID, user: g.User, gpus: need, overQuota: over, seq: a.seq,
	}
	a.usage[g.User] += need
	a.admitted += need
	if over {
		return AdmitOverQuota, nil
	}
	return AdmitInQuota, nil
}

// Release returns a finished (or preempted) job's footprint. Release
// is idempotent: releasing a job with no registered footprint — already
// released, never admitted, or preempted meanwhile — is a no-op, so
// duplicate terminal events cannot drive usage negative.
func (a *Admission) Release(jobID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.releaseLocked(jobID)
}

func (a *Admission) releaseLocked(jobID string) {
	j, ok := a.running[jobID]
	if !ok {
		return
	}
	delete(a.running, jobID)
	a.usage[j.user] -= j.gpus
	a.admitted -= j.gpus
}

// PreemptFor selects victim jobs freeing at least needGPUs for an
// in-quota request by user. Victims are chosen in the paper's order:
// free-tier users' jobs first, then over-quota jobs (most recent first —
// the job that least "deserves" its resources). The selected jobs are
// released; the caller must actually stop them. It returns the victim
// job IDs, or nil if the demand cannot be met.
func (a *Admission) PreemptFor(user string, needGPUs int) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var candidates []*runningJob
	for _, j := range a.running {
		if j.user == user {
			continue
		}
		tier := a.quotas[j.user].Tier
		if tier == TierFree || j.overQuota {
			candidates = append(candidates, j)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		ci, cj := candidates[i], candidates[j]
		fi := a.quotas[ci.user].Tier == TierFree
		fj := a.quotas[cj.user].Tier == TierFree
		if fi != fj {
			return fi // free tier first
		}
		return ci.seq > cj.seq // newest first
	})
	var victims []string
	freed := 0
	for _, j := range candidates {
		if freed >= needGPUs {
			break
		}
		victims = append(victims, j.jobID)
		freed += j.gpus
	}
	if freed < needGPUs {
		return nil
	}
	for _, id := range victims {
		a.releaseLocked(id)
	}
	a.preemptions += int64(len(victims))
	return victims
}
