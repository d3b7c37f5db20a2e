// Package tenant implements FfDL's multi-tenancy subsystem (§3.6): a
// tenant registry — per-user tiers and GPU quotas persisted in
// MongoDB — and an event-driven dispatcher that turns admission control from a synchronous submit-time
// gate into a queue.
//
// With the subsystem enabled, a submission is never rejected for lack
// of capacity: it is persisted as QUEUED and the dispatcher admits it
// when room exists. The dispatcher pops the FCFS queue (sched.Queue,
// largest-gang-first among same-instant arrivals), asks sched.Admission
// for a decision, and hands admitted jobs to the platform. When the
// head of the queue is an *in-quota* request that cannot be admitted
// because the cluster budget is consumed, the dispatcher preempts: it
// selects victims through Admission.PreemptFor (free-tier jobs first,
// then over-quota jobs newest-first), checkpoints and halts them
// through the platform's existing halt path, and requeues them — their
// original arrival time restores them to the head of the FCFS order —
// to resume from checkpoint once capacity frees.
//
// The dispatcher is a level-triggered watch consumer in the sense of
// docs/watch-protocol.md: it wakes on job status transitions (queued,
// halted, resumed, terminal) from the platform's status bus, on quota
// writes the API hands it (SetQuota), and on cluster capacity changes
// from the kube store watch. It keeps no ticker. Its Resync lists every
// job that is not terminal from the durable store and reconciles
// admission with that one listing; it runs at Start, when the status
// subscription closes (the gap signal for the events it skipped), and
// once ResyncInterval after any call the stores or the LCM did not
// answer (Retry). So a dropped event, a failed call or a restart delays
// a dispatch, never loses it, leaks its GPUs or leaves a running job
// unaccounted.
package tenant

import (
	"fmt"

	"github.com/ffdl/ffdl/internal/sched"
)

// Record is one tenant's entry in the registry: who they are, which
// tier they ride in, and their GPU entitlement. Usage beyond GPUs is
// admitted only opportunistically and is preemptible, as are all
// free-tier jobs.
type Record struct {
	User string
	Tier sched.Tier
	GPUs int
}

// Quota converts the record to the admission controller's vocabulary.
func (r Record) Quota() sched.UserQuota {
	return sched.UserQuota{User: r.User, Tier: r.Tier, GPUs: r.GPUs}
}

// Validate checks the record.
func (r Record) Validate() error {
	if r.User == "" {
		return fmt.Errorf("tenant: record needs a user")
	}
	if r.Tier != sched.TierFree && r.Tier != sched.TierPaid {
		return fmt.Errorf("tenant: unknown tier %d for %s", r.Tier, r.User)
	}
	if r.GPUs < 0 {
		return fmt.Errorf("tenant: negative GPU quota for %s", r.User)
	}
	return nil
}

// TierName renders a tier for APIs and CLIs.
func TierName(t sched.Tier) string {
	switch t {
	case sched.TierFree:
		return "free"
	case sched.TierPaid:
		return "paid"
	default:
		return fmt.Sprintf("tier(%d)", t)
	}
}

// ParseTier parses a tier name ("free" or "paid").
func ParseTier(s string) (sched.Tier, error) {
	switch s {
	case "free":
		return sched.TierFree, nil
	case "paid":
		return sched.TierPaid, nil
	default:
		return 0, fmt.Errorf("tenant: unknown tier %q (want free or paid)", s)
	}
}
