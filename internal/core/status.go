// Package core implements FfDL's core services layer (§3): the API
// microservice, the Lifecycle Manager (LCM), the per-job Guardian
// delegate, the helper pod containers (controller, load-data,
// store-results, log-collector) and the Training Metrics Service —
// wired over internal/rpc and running on the internal/kube orchestrator
// with internal/etcd coordination and internal/mongo metadata.
package core

import (
	"time"
)

// JobStatus is a DL-specific job state — the statuses the paper says
// generic cluster managers cannot provide (§1: "DOWNLOADING, PROCESSING,
// STORING, HALTED, RESUMED etc.").
type JobStatus string

// Job statuses.
const (
	// StatusQueued marks a submission accepted and persisted but not yet
	// admitted: under the tenant subsystem (§3.6), over-capacity work
	// waits in the dispatch queue instead of being rejected. The tenant
	// dispatcher moves it to PENDING when its footprint is admitted.
	StatusQueued      JobStatus = "QUEUED"
	StatusPending     JobStatus = "PENDING"
	StatusDeploying   JobStatus = "DEPLOYING"
	StatusDownloading JobStatus = "DOWNLOADING"
	StatusProcessing  JobStatus = "PROCESSING"
	StatusStoring     JobStatus = "STORING"
	StatusCompleted   JobStatus = "COMPLETED"
	StatusFailed      JobStatus = "FAILED"
	StatusHalted      JobStatus = "HALTED"
	StatusResumed     JobStatus = "RESUMED"
	StatusCanceled    JobStatus = "CANCELED"
)

// Terminal reports whether a job status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusCanceled
}

// admittedStatuses are the statuses of a job that is admitted and
// neither HALTED nor terminal, in lifecycle order: the LCM's recovery
// scan deploys these jobs, and the tenant dispatcher's listing restores
// their admission footprints.
var admittedStatuses = []JobStatus{
	StatusPending, StatusResumed, StatusDeploying, StatusDownloading,
	StatusProcessing, StatusStoring,
}

// statusRank orders the in-flight statuses for aggregation across
// learners: the job is only as far along as its slowest learner.
func statusRank(s JobStatus) int {
	switch s {
	case StatusQueued:
		return 1
	case StatusPending:
		return 2
	case StatusDeploying:
		return 3
	case StatusDownloading:
		return 4
	case StatusProcessing:
		return 5
	case StatusStoring:
		return 6
	case StatusCompleted:
		return 7
	default:
		return 0
	}
}

// StatusEntry is one record in a job's status history. "users use
// associated timestamps for job profiling and debugging" (§2), so every
// transition is timestamped and persisted to MongoDB.
type StatusEntry struct {
	Status  JobStatus
	Time    time.Time
	Message string
}

// CanTransition reports whether from → to is a legal status move. The
// machine enforces monotone forward progress: a job may skip observation
// points (a fast job can go DOWNLOADING → COMPLETED if the controller's
// sampling missed PROCESSING — the underlying process still went through
// it) but may never move backwards, and terminal states are sticky.
// HALT is allowed from any in-flight state; RESUME only from HALTED and
// re-enters the pipeline at deployment rank.
func CanTransition(from, to JobStatus) bool {
	if from == to {
		return true
	}
	if from.Terminal() {
		return false
	}
	switch to {
	case StatusFailed, StatusCanceled:
		return true
	case StatusHalted:
		return statusRank(from) >= statusRank(StatusDeploying) || from == StatusResumed
	case StatusResumed:
		return from == StatusHalted
	}
	if from == StatusHalted {
		return false // only RESUMED/FAILED/CANCELED leave HALTED
	}
	fromRank := statusRank(from)
	if from == StatusResumed {
		fromRank = statusRank(StatusDeploying)
	}
	// DEPLOYING is re-entrant from any *admitted* state: a restarted
	// Guardian rolls the job back and redeploys it from scratch (§3.3),
	// which legitimately moves a PROCESSING job back to DEPLOYING. A
	// QUEUED job, by contrast, has no admitted footprint and must pass
	// through PENDING (dispatch) first.
	if to == StatusDeploying {
		return fromRank >= statusRank(StatusPending)
	}
	return statusRank(to) > fromRank
}
