package main

import (
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/core"
)

// maxEntries bounds one job's watched history. A healthy lifecycle has
// at most seven transitions (QUEUED … COMPLETED); anything longer is a
// rollback/redeploy loop, which the correctness gate reports.
const maxEntries = 12

// entry is one watched status transition, kept compact (no message
// string) so the samples can be allocated before the measured phase and
// the benchmark's own bookkeeping stays out of live_kb_per_job.
type entry struct {
	status core.JobStatus
	at     time.Time // StatusEntry.Time: the platform's clock read
}

// jobSample is everything the client side learns about one job.
type jobSample struct {
	id     string
	user   int // index into the run's user table
	client int

	submit     time.Time // just before Client.Submit
	submitDone time.Time // Submit returned
	watchStart time.Time // just before Client.WatchStatus
	watchOpen  time.Time // WatchStatus returned
	seenEnd    time.Time // client received the terminal transition

	entries  [maxEntries]entry
	nEntries int
	overflow bool // more than maxEntries transitions arrived

	failure string // why the job counts as failed; "" = COMPLETED in time
}

func (s *jobSample) history() []entry { return s.entries[:s.nEntries] }

func (s *jobSample) add(e core.StatusEntry) {
	if s.nEntries == maxEntries {
		s.overflow = true
		return
	}
	s.entries[s.nEntries] = entry{status: e.Status, at: e.Time}
	s.nEntries++
}

// firstAt returns the time of the first watched entry whose status is
// one of want.
func (s *jobSample) firstAt(want ...core.JobStatus) (time.Time, bool) {
	for _, e := range s.history() {
		for _, w := range want {
			if e.status == w {
				return e.at, true
			}
		}
	}
	return time.Time{}, false
}

// latencies of one completed job, in seconds from the client's submit
// timestamp. start is the first entry at or past PROCESSING (instant
// training lets the sampler skip PROCESSING itself, exactly as
// Client.WaitForStatus treats it). done is the COMPLETED entry, or —
// when the client watches one job at a time and so observes the
// terminal event as it happens — the later client observation.
type latencies struct {
	queue, start, done float64
	lag                float64 // terminal entry time → client saw it
}

func (s *jobSample) latencies(observed bool) (latencies, bool) {
	var l latencies
	pend, ok1 := s.firstAt(core.StatusPending)
	strt, ok2 := s.firstAt(core.StatusProcessing, core.StatusStoring, core.StatusCompleted)
	done, ok3 := s.firstAt(core.StatusCompleted)
	if !ok1 || !ok2 || !ok3 {
		return l, false
	}
	l.queue = pend.Sub(s.submit).Seconds()
	l.start = strt.Sub(s.submit).Seconds()
	l.done = done.Sub(s.submit).Seconds()
	l.lag = s.seenEnd.Sub(done).Seconds()
	if observed && l.lag > 0 {
		l.done += l.lag
	}
	return l, true
}

// checkChain is the per-job half of the correctness gate: the watched
// history must be a legal CanTransition chain, strictly forward in time
// order as delivered, and end COMPLETED.
func (s *jobSample) checkChain() error {
	h := s.history()
	if s.overflow {
		return fmt.Errorf("%s: more than %d transitions", s.id, maxEntries)
	}
	if len(h) == 0 {
		return fmt.Errorf("%s: no transitions delivered", s.id)
	}
	for i := 1; i < len(h); i++ {
		if h[i].status == h[i-1].status {
			return fmt.Errorf("%s: transition %d delivered twice (%s)", s.id, i+1, h[i].status)
		}
		if !core.CanTransition(h[i-1].status, h[i].status) {
			return fmt.Errorf("%s: illegal transition %s -> %s", s.id, h[i-1].status, h[i].status)
		}
		if h[i].at.Before(h[i-1].at) {
			return fmt.Errorf("%s: transition %s timestamped before %s", s.id, h[i].status, h[i-1].status)
		}
	}
	if last := h[len(h)-1].status; last != core.StatusCompleted {
		return fmt.Errorf("%s: ended %s, not COMPLETED", s.id, last)
	}
	return nil
}

// matchesHistory checks exactly-once, in-order delivery: what the watch
// stream delivered must equal the durable history entry for entry.
func (s *jobSample) matchesHistory(durable []core.StatusEntry) error {
	h := s.history()
	if len(h) != len(durable) {
		return fmt.Errorf("%s: watch delivered %d transitions, history has %d", s.id, len(h), len(durable))
	}
	for i, d := range durable {
		if h[i].status != d.Status || !h[i].at.Equal(d.Time) {
			return fmt.Errorf("%s: transition %d is %s@%s on the watch, %s@%s in history",
				s.id, i+1, h[i].status, h[i].at.Format(time.RFC3339Nano), d.Status, d.Time.Format(time.RFC3339Nano))
		}
	}
	return nil
}

// Phases of the lifecycle budget. Each history interval is charged to
// the status the job was *in*; PROCESSING and STORING are one row
// because instant training makes the sampler skip either at random.
const (
	phaseQueued = iota
	phasePending
	phaseDeploying
	phaseDownloading
	phaseFinishing
	numPhases
)

var phaseNames = [numPhases]string{"queued", "pending", "deploying", "downloading", "finishing"}

func phaseOf(s core.JobStatus) int {
	switch s {
	case core.StatusQueued:
		return phaseQueued
	case core.StatusPending:
		return phasePending
	case core.StatusDeploying:
		return phaseDeploying
	case core.StatusDownloading:
		return phaseDownloading
	default:
		return phaseFinishing
	}
}

// phaseIntervals partitions [from, to] by the history timestamps: the
// stretch before the first entry belongs to the first status (the
// submit RPC reaching the API), each later stretch to the status the
// job was in, and the stretch after the terminal entry (delivery of
// that event to the client) to finishing. A skipped status simply
// contributes nothing; its time lands on the status before it. The
// intervals always sum to to − from.
func phaseIntervals(h []entry, from, to time.Time) [numPhases]float64 {
	var out [numPhases]float64
	if len(h) == 0 {
		return out
	}
	cur, at := phaseOf(h[0].status), from
	for _, e := range h[1:] {
		out[cur] += e.at.Sub(at).Seconds()
		cur, at = phaseOf(e.status), e.at
	}
	if to.After(at) {
		out[phaseFinishing] += to.Sub(at).Seconds()
	}
	return out
}
