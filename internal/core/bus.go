package core

import (
	"fmt"
	"sync"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

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
// a resync tick.
//
// The bus has one feeder: the writers of a job's status (handleSubmit,
// setJobStatus) publish right after their MongoDB write, in Seq order.
type statusBus struct {
	mu    sync.Mutex
	subs  map[int]*busSub
	nextS int
	// log retains recent published events on the platform's commit log
	// (internal/commitlog), keyed by job id with key-compaction: a
	// watcher that disconnects and comes back within the retained
	// window replays its job's missed transitions from here instead of
	// re-reading MongoDB (ReplayJob), and compaction keeps at least
	// every job's newest transition as older segments merge.
	log *commitlog.Log
	// first is where ReplayJob starts reading: per tracked job, the log
	// offset of its earliest event compaction has not yet taken. A job
	// is tracked from its first non-terminal event on — a lone terminal
	// event is the record compaction keeps forever, and tracking it
	// would pin an entry per finished job — until a sweep finds that
	// event compacted away; an untracked job costs a read one map miss,
	// not a scan of the log. appends paces the sweeps.
	first   map[string]uint64
	appends int
	// persist encodes events into record payloads so the replay window
	// survives a process restart (DataDir platforms); off on MemStore,
	// where events ride the in-memory record Value.
	persist bool
}

type busSub struct {
	jobID string // "" subscribes to all jobs
	ch    chan StatusEvent
}

// busSegmentRecords is the replay log's segment size. Sealing a segment
// is what compacts it, so it is also how often Publish sweeps first.
const busSegmentRecords = 256

// newStatusBus opens the bus over the given replay-log store — a
// MemStore for the simulation default, a FileStore under DataDir for a
// durable platform, where the retained window (and therefore WatchStatus
// replay-on-reconnect) survives a full process restart: the jobs a
// recovered log still holds are tracked again from its records.
// obsReg/clk wire the commit log's append/compaction instrumentation
// (nil obsReg runs the log uninstrumented).
func newStatusBus(store commitlog.SegmentStore, persist bool, obsReg *obs.Registry, clk sim.Clock) (*statusBus, error) {
	log, err := commitlog.Open(store, commitlog.Options{
		SegmentRecords: busSegmentRecords,
		Compact:        true,
		MaxSegments:    8,
		Obs:            obsReg,
		Clock:          clk,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open status log: %w", err)
	}
	b := &statusBus{subs: make(map[int]*busSub), first: make(map[string]uint64), log: log, persist: persist}
	log.Scan(0, func(rec commitlog.Record) bool {
		if ev, isEv := busEvent(rec); isEv {
			b.track(ev, rec.Offset)
		}
		return true
	})
	return b, nil
}

// track starts tracking ev's job at offset off unless it already is.
func (b *statusBus) track(ev StatusEvent, off uint64) {
	if _, tracked := b.first[ev.JobID]; !tracked && !ev.Status.Terminal() {
		b.first[ev.JobID] = off
	}
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

// Publish records ev in the replay log and delivers it to matching
// subscribers without blocking. Callers publish a job's transitions in
// Seq order (statusMu serialises the writers).
func (b *statusBus) Publish(ev StatusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Log before fan-out (keyed by job), so a subscriber that misses the
	// channel send can still replay the transition. A durable bus encodes
	// the event into the payload.
	var off uint64
	var err error
	if b.persist {
		off, err = b.log.Append(ev.JobID, encodeStatusEvent(nil, ev))
	} else {
		off, err = b.log.AppendValue(ev.JobID, ev)
	}
	if err != nil {
		// A failed append never blocks a transition, but it kills the log
		// (commitlog.ErrDead): its tail is stale from here on, so nothing
		// it holds can prove a complete answer. Untracking every job sends
		// all reads to MongoDB, the source of truth.
		clear(b.first)
	} else {
		b.track(ev, off)
		if b.appends++; b.appends%busSegmentRecords == 0 {
			for id, first := range b.first {
				if _, retained := b.log.Get(first); !retained {
					delete(b.first, id)
				}
			}
		}
	}
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

// ReplayJob returns the retained transitions of a tracked job with Seq
// >= fromSeq, in Seq order. contiguous is the proof of completeness a
// read demands before serving the replay as-is: at least one event, led
// by exactly fromSeq, with no Seq hole. Anything less (job untracked
// here, resume point compacted away, nothing at or past fromSeq yet)
// reports false and the read goes to MongoDB, which remains the source
// of truth.
func (b *statusBus) ReplayJob(jobID string, fromSeq int) (evs []StatusEvent, contiguous bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, tracked := b.first[jobID]
	if !tracked {
		return nil, false
	}
	return b.scanJob(jobID, fromSeq, first)
}

// Retained returns every transition of jobID with Seq >= fromSeq the
// log still holds, tracked or not, holes and all: the whole-log read
// behind a degraded reply, where a history truncated by compaction
// still beats failing the read.
func (b *statusBus) Retained(jobID string, fromSeq int) []StatusEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	evs, _ := b.scanJob(jobID, fromSeq, 0)
	return evs
}

// scanJob walks the log in place from offset from, collecting jobID's
// events with Seq >= fromSeq.
func (b *statusBus) scanJob(jobID string, fromSeq int, from uint64) (evs []StatusEvent, contiguous bool) {
	last, holes := fromSeq-1, false
	b.log.Scan(from, func(rec commitlog.Record) bool {
		if rec.Key != jobID {
			return true
		}
		ev, isEv := busEvent(rec)
		if !isEv || ev.Seq <= last {
			return true // undecodable, or below the resume point
		}
		if ev.Seq != last+1 {
			holes = true // compaction or a lost publish
		}
		evs = append(evs, ev)
		last = ev.Seq
		return true
	})
	return evs, len(evs) > 0 && !holes
}

// busEvent extracts the StatusEvent a log record carries: the in-memory
// Value on the MemStore path, decoded from the durable payload
// otherwise (records recovered from a reopened store carry no Value).
func busEvent(rec commitlog.Record) (StatusEvent, bool) {
	if ev, ok := rec.Value.(StatusEvent); ok {
		return ev, true
	}
	if len(rec.Payload) == 0 {
		return StatusEvent{}, false
	}
	ev, err := decodeStatusEvent(rec.Payload)
	return ev, err == nil
}
