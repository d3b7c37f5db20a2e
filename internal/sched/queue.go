package sched

import (
	"sort"
	"time"
)

// QueuedGang is a gang waiting for dispatch.
type QueuedGang struct {
	Gang *Gang
	// Arrived is the submission time, for FCFS ordering and queue-delay
	// accounting (Fig. 3 counts jobs queued > 15 min).
	Arrived time.Time
	seq     uint64
}

// Queue implements FfDL's dispatch order (§3.6): strict FCFS; when
// multiple jobs arrive at the same instant the largest gang goes first.
type Queue struct {
	items []*QueuedGang
	seq   uint64
}

// Push enqueues a gang.
func (q *Queue) Push(g *Gang, arrived time.Time) {
	q.seq++
	q.items = append(q.items, &QueuedGang{Gang: g, Arrived: arrived, seq: q.seq})
	q.reorder()
}

// reorder maintains FCFS order with largest-gang-first among
// same-instant arrivals.
func (q *Queue) reorder() {
	sort.SliceStable(q.items, func(i, j int) bool {
		a, b := q.items[i], q.items[j]
		if !a.Arrived.Equal(b.Arrived) {
			return a.Arrived.Before(b.Arrived)
		}
		ga, gb := a.Gang.GPUDemand(), b.Gang.GPUDemand()
		if ga != gb {
			return ga > gb // largest gang first
		}
		return a.seq < b.seq
	})
}

// Len returns the queue depth.
func (q *Queue) Len() int { return len(q.items) }

// Peek returns the head without removing it, or nil.
func (q *Queue) Peek() *QueuedGang {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// pop removes and returns the head, or nil.
func (q *Queue) pop() *QueuedGang {
	if len(q.items) == 0 {
		return nil
	}
	head := q.items[0]
	q.items = q.items[1:]
	return head
}

// Remove deletes a queued gang by job id; it reports whether it was
// present (user-initiated termination of a queued job).
func (q *Queue) Remove(jobID string) bool {
	for i, it := range q.items {
		if it.Gang.JobID == jobID {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Items returns the queue contents in dispatch order (copy).
func (q *Queue) Items() []*QueuedGang {
	out := make([]*QueuedGang, len(q.items))
	copy(out, q.items)
	return out
}

// Dispatcher drains a Queue against cluster state using a gang policy.
type Dispatcher struct {
	// Policy places gangs.
	Policy GangPolicy
	// Backfill, when true, lets jobs behind a blocked head start if they
	// fit (not FfDL's production default; kept for ablation).
	Backfill bool
}

// DispatchResult records one placement decision.
type DispatchResult struct {
	Gang        *Gang
	Assignments []Assignment
	QueuedFor   time.Duration
}

// Dispatch pops as many gangs as currently fit, in FCFS order, applying
// assignments to cs. It stops at the first gang that does not fit
// (unless Backfill). It returns the placements made and, for a blocked
// head, the failure.
func (d *Dispatcher) Dispatch(q *Queue, cs *ClusterState, now time.Time) ([]DispatchResult, *Failure) {
	var out []DispatchResult
	var headFail *Failure
	i := 0
	for i < len(q.items) {
		item := q.items[i]
		as, fail := d.Policy.PlaceGang(item.Gang, cs)
		if fail != nil {
			if headFail == nil {
				headFail = fail
			}
			if !d.Backfill {
				break
			}
			i++
			continue
		}
		for j, a := range as {
			cs.Assign(a.Node, item.Gang.Pods[j].Demand)
		}
		out = append(out, DispatchResult{
			Gang:        item.Gang,
			Assignments: as,
			QueuedFor:   now.Sub(item.Arrived),
		})
		q.items = append(q.items[:i], q.items[i+1:]...)
	}
	return out, headFail
}
