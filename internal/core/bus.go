package core

import "sync"

// StatusEvent is one job status transition published on the platform's
// status bus. Seq is the 1-based index of the transition in the job's
// MongoDB history — the stream's resume token — so subscribers can
// detect and refill gaps from the durable record: the bus is a latency
// optimization, MongoDB remains the source of truth (§3.2).
// See docs/watch-protocol.md ("core status bus" layer).
type StatusEvent struct {
	JobID  string
	Seq    int
	Status JobStatus
	Entry  StatusEntry
}

// statusBus fans job status transitions out to in-process subscribers:
// the LCM recovery loop (wakes on PENDING jobs instead of polling
// MongoDB), the tenant dispatcher's status pump and the API replicas'
// WatchStatus streams. Delivery is best-effort with bounded buffers — a
// slow subscriber loses events and recovers from MongoDB via Seq gaps or
// a resync tick. The bus keeps no history of its own: every read of a
// past transition goes to the job document.
//
// The bus has one feeder: the writers of a job's status (handleSubmit,
// setJobStatus) publish right after their MongoDB write, in Seq order.
type statusBus struct {
	mu    sync.Mutex
	subs  map[int]*busSub
	nextS int
}

type busSub struct {
	jobID string // "" subscribes to all jobs
	ch    chan StatusEvent
}

// Subscribe registers for transitions of one job (or all jobs when
// jobID is ""). Cancel closes the channel.
func (b *statusBus) Subscribe(jobID string, buf int) (<-chan StatusEvent, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextS++
	id := b.nextS
	s := &busSub{jobID: jobID, ch: make(chan StatusEvent, buf)}
	b.subs[id] = s
	return s.ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(s.ch)
		}
	}
}

// Publish delivers ev to matching subscribers without blocking. Callers
// publish a job's transitions in Seq order (statusMu serialises the
// writers).
func (b *statusBus) Publish(ev StatusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.subs {
		if s.jobID != "" && s.jobID != ev.JobID {
			continue
		}
		select {
		case s.ch <- ev:
		default: // slow subscriber: it refills from MongoDB
		}
	}
}
