package core

import (
	"fmt"
	"sync"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/mongo"
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
// MongoDB) and the API replicas' WatchStatus streams. Delivery is
// best-effort with bounded buffers — a slow subscriber loses events and
// recovers from MongoDB via Seq gaps or a resync tick.
//
// The bus has two feeders: the direct path (setJobStatus publishes
// right after its MongoDB write) and the change-feed path (the
// platform tails the jobs collection's mongo change stream and
// republishes transitions it carries — the multi-replica fallback that
// delivers transitions committed by other API processes). Per-job Seq
// dedup below makes the two paths composable: whichever arrives first
// wins, the echo is dropped, and per-job order is preserved.
type statusBus struct {
	mu    sync.Mutex
	subs  map[int]*busSub
	nextS int
	// lastSeq is the highest Seq published per in-flight job, the
	// dedup cursor between the direct and change-feed paths. Entries
	// are removed at the terminal transition to bound the map; a late
	// duplicate terminal may therefore be republished, which
	// subscribers absorb by their own Seq cursors.
	lastSeq map[string]int
	// log retains recent published events on the platform's commit log
	// (internal/commitlog), keyed by job id with key-compaction: a
	// watcher that disconnects and comes back within the retained
	// window replays its job's missed transitions from here instead of
	// re-reading MongoDB (ReplayJob), and compaction keeps at least
	// every job's newest transition as older segments merge.
	log *commitlog.Log
	// persist encodes events into record payloads so the replay window
	// survives a process restart (DataDir platforms); off on MemStore,
	// where events ride the in-memory record Value.
	persist bool
}

type busSub struct {
	jobID string // "" subscribes to all jobs
	ch    chan StatusEvent
}

// newStatusBus opens the bus over the given replay-log store — a
// MemStore for the simulation default, a FileStore under DataDir for a
// durable platform, where the retained window (and therefore WatchStatus
// replay-on-reconnect) survives a full process restart. obsReg/clk wire
// the commit log's append/compaction instrumentation (nil obsReg runs
// the log uninstrumented).
func newStatusBus(store commitlog.SegmentStore, persist bool, obsReg *obs.Registry, clk sim.Clock) (*statusBus, error) {
	log, err := commitlog.Open(store, commitlog.Options{
		SegmentRecords: 256,
		Compact:        true,
		MaxSegments:    8,
		Obs:            obsReg,
		Clock:          clk,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open status log: %w", err)
	}
	return &statusBus{subs: make(map[int]*busSub), lastSeq: make(map[string]int), log: log, persist: persist}, nil
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

// Publish delivers ev to matching subscribers without blocking. Events
// at or below the job's published cursor are dropped, so the direct and
// change-feed paths never duplicate or reorder a job's transitions.
func (b *statusBus) Publish(ev StatusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Seq <= b.lastSeq[ev.JobID] {
		return // already published by the other feeder
	}
	if ev.Status.Terminal() {
		delete(b.lastSeq, ev.JobID)
	} else {
		b.lastSeq[ev.JobID] = ev.Seq
	}
	// Record the transition in the replay log (keyed by job) before
	// fan-out, so a subscriber that misses the channel send can still
	// replay it. A durable bus encodes the event into the payload; a
	// failed append degrades to refill-from-MongoDB, never blocks a
	// transition.
	if b.persist {
		b.log.Append(ev.JobID, encodeStatusEvent(nil, ev)) //nolint:errcheck // replay is an optimization; MongoDB is the source of truth
	} else {
		b.log.AppendValue(ev.JobID, ev) //nolint:errcheck // unreachable on a MemStore
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

// ReplayJob returns the retained transitions of jobID with Seq >=
// fromSeq, in Seq order. contiguous is the proof of completeness the
// watch path demands before streaming the replay as-is: at least one
// event, led by exactly fromSeq, with no Seq hole. Anything less (job
// unknown here, resume point compacted away, retention trimmed the
// tail) reports false and the watcher refills from MongoDB, which
// remains the source of truth. Degraded mode's status read takes the
// events regardless — a front truncated by compaction still beats
// failing the read while the metadata store is unavailable.
func (b *statusBus) ReplayJob(jobID string, fromSeq int) (evs []StatusEvent, contiguous bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	last, holes := fromSeq-1, false
	for _, rec := range b.log.Records(0) {
		if rec.Key != jobID {
			continue
		}
		ev, isEv := busEvent(rec)
		if !isEv || ev.Seq <= last {
			continue // duplicate (late terminal echo) or below the resume point
		}
		if ev.Seq != last+1 {
			holes = true // compaction or a lost publish
		}
		evs = append(evs, ev)
		last = ev.Seq
	}
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

// statusFeedLoop tails the jobs collection's change stream and
// republishes each carried status transition on the bus. This is the
// bus's multi-replica fallback: a transition committed by another API
// process — whose in-process Publish this one cannot observe — still
// reaches local subscribers through the durable feed, so
// Client.WatchStatus keeps its exactly-once, in-order, seq-resumable
// contract when the API layer runs multi-replica. Locally-published
// transitions come back as echoes and are dropped by the bus's Seq
// dedup. Feed lag or drops are harmless for the same reason every bus
// gap is: subscribers refill from MongoDB by Seq.
func (p *Platform) statusFeedLoop(cs *mongo.ChangeStream) {
	for {
		select {
		case <-p.stopCh:
			return
		case ev, ok := <-cs.Events():
			if !ok {
				return
			}
			if ev.Doc == nil {
				continue // deletes carry no transition
			}
			rec := docToRecord(ev.Doc)
			if rec.ID == "" || len(rec.History) == 0 {
				continue
			}
			p.bus.Publish(StatusEvent{
				JobID:  rec.ID,
				Seq:    len(rec.History),
				Status: rec.Status,
				Entry:  rec.History[len(rec.History)-1],
			})
		}
	}
}
