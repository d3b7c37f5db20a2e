// Package commitlog is the platform's durable log substrate: an
// append-only log of (offset, key, payload) records split into bounded
// segments, with key-compaction of sealed segments and offset-addressed
// reads — one retention mechanism under the mongo oplog and the learner
// logs. A record's one body is its encoded payload, so a log reads the
// same whether it rides memory or disk. A log holds no consumer state:
// resume positions are offsets the reader keeps (a change-stream Seq, a
// LogLine.Offset), checked against OldestOffset.
//
// Durability is pluggable through SegmentStore: the simulation runs on
// MemStore, FileStore persists segments on disk, and FaultStore wraps
// either with crash/corruption injection for the torture suite
// (Torture). The Log keeps an in-memory index of every retained record
// — each payload a subslice of the frame handed to the store — and
// writes through to the store, so reads never touch the store; Open
// replays the store back, truncating any torn tail.
//
// Guarantees (pinned by the torture and property tests):
//
//   - Offsets are unique and strictly increasing: Open resumes
//     allocation past the last recovered record, so no recovered offset
//     is ever reassigned. The offsets of a torn tail are minted again.
//   - A recovered log is a prefix of what was appended: a torn tail is
//     truncated, nothing mid-log is silently dropped.
//   - Key-compaction of sealed segments preserves the latest record of
//     every key.
package commitlog

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

// Record is one appended entry. Offset is assigned by the log; Key is
// the compaction identity ("" = never superseded); Payload is the
// durable body, and the only one. Readers must not modify Payload.
type Record struct {
	Offset  uint64
	Key     string
	Payload []byte
}

// Options parameterizes a Log.
type Options struct {
	// FirstOffset is the offset of the first record ever appended
	// (default 0). The mongo oplog sets 1 so offsets coincide with its
	// historical 1-based sequence numbers.
	FirstOffset uint64
	// SegmentRecords seals the active segment after this many records
	// (default 1024); a segment also seals at segmentBytes.
	SegmentRecords int
	// Compact key-compacts segments as they seal: records superseded
	// by a later record with the same key are dropped.
	Compact bool
	// MaxSegments bounds the sealed-segment count. With Compact, the
	// two oldest sealed segments are merged (no records lost beyond
	// compaction's latest-per-key rule); without it, the oldest
	// segment is dropped entirely. 0 = unbounded.
	MaxSegments int
	// Obs, when non-nil, wires the log into the platform's metrics
	// registry: append latency ("commitlog.append"), compaction runs
	// ("commitlog.compactions") and compacted-away records
	// ("commitlog.compacted_records"). Nil leaves every hot path
	// uninstrumented at zero cost.
	Obs *obs.Registry
	// Clock times instrumented appends (defaults to the real clock when
	// Obs is set and Clock is nil). Unused without Obs.
	Clock sim.Clock
}

func (o *Options) defaults() {
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = 1024
	}
}

// segmentBytes seals the active segment after this many encoded bytes,
// whatever its record count.
const segmentBytes = 1 << 20

// ErrDead reports an append after a store write failed; the log is
// read-only from the first failed write (the in-memory index never
// runs ahead of the store).
var ErrDead = errors.New("commitlog: store failed; log is read-only")

// errClosed is the ErrDead an append after Close returns.
var errClosed = fmt.Errorf("%w: log closed", ErrDead)

// segment is one bounded run of records. recs hold the decoded index;
// bytes mirrors the store-side encoded size.
type segment struct {
	base   uint64 // offset the segment was opened at (store name)
	recs   []Record
	bytes  int64
	sealed bool
}

// lastOffset returns the segment's final record offset (ok=false when
// empty).
func (s *segment) lastOffset() (uint64, bool) {
	if len(s.recs) == 0 {
		return 0, false
	}
	return s.recs[len(s.recs)-1].Offset, true
}

// Log is a segmented, compacting commit log. Safe for concurrent use.
type Log struct {
	mu    sync.Mutex
	store SegmentStore
	opts  Options

	segments []*segment // ascending base; last is active
	oldest   uint64     // retention floor: first offset of the contiguous tail
	next     uint64     // next offset to assign
	// latest maps each key to its newest offset (Compact only): the
	// compaction rule, kept as records land and rebuilt by Open.
	latest map[string]uint64

	dead error // first store failure; log is read-only after

	// Registry instrument handles, derived once at Open; all nil when
	// Options.Obs is nil (nil instruments no-op for free).
	obsAppend      *obs.Histogram
	obsCompactions *obs.Counter
	obsCompacted   *obs.Counter
	clock          sim.Clock
}

func (l *Log) lock()   { l.mu.Lock() }
func (l *Log) unlock() { l.mu.Unlock() }

// Open replays store into a ready Log. A torn tail on the newest
// segment (or, after corruption, any segment) is truncated — in the
// store too — and every segment after a torn one is discarded, so the
// recovered log is always a clean prefix. Offset allocation resumes
// past the last recovered record.
func Open(store SegmentStore, opts Options) (*Log, error) {
	opts.defaults()
	l := &Log{
		store:  store,
		opts:   opts,
		oldest: opts.FirstOffset,
		next:   opts.FirstOffset,
	}
	if opts.Compact {
		l.latest = make(map[string]uint64)
	}
	if opts.Obs != nil {
		l.obsAppend = opts.Obs.Histogram("commitlog.append")
		l.obsCompactions = opts.Obs.Counter("commitlog.compactions")
		l.obsCompacted = opts.Obs.Counter("commitlog.compacted_records")
		l.clock = opts.Clock
		if l.clock == nil {
			l.clock = sim.NewRealClock()
		}
	}
	bases, err := store.Segments()
	if err != nil {
		return nil, fmt.Errorf("commitlog: open: %w", err)
	}
	torn := false
	for _, base := range bases {
		if torn {
			// Everything after a torn segment is suspect: drop it so
			// the recovered log stays a prefix.
			if err := store.Remove(base); err != nil {
				return nil, fmt.Errorf("commitlog: open: drop segment %d: %w", base, err)
			}
			continue
		}
		data, err := store.Load(base)
		if err != nil {
			return nil, fmt.Errorf("commitlog: open: load segment %d: %w", base, err)
		}
		recs, validLen, tornErr := decodeSegment(data)
		if tornErr != nil {
			torn = true
			if err := store.Rewrite(base, data[:validLen]); err != nil {
				return nil, fmt.Errorf("commitlog: open: truncate torn segment %d: %w", base, err)
			}
		}
		seg := &segment{base: base, recs: recs, bytes: int64(validLen), sealed: true}
		l.segments = append(l.segments, seg)
		if last, ok := seg.lastOffset(); ok && last >= l.next {
			l.next = last + 1
		}
	}
	// Drop empty segments from the index (fresh actives and crash
	// leftovers hold no records); a later roll landing on the same
	// base reuses the store file.
	kept := l.segments[:0]
	for _, seg := range l.segments {
		if len(seg.recs) > 0 {
			kept = append(kept, seg)
		}
	}
	l.segments = kept
	// The floor sits past the last hole compaction, merge or retention
	// left in the recovered offsets, where the live log had raised it.
	expect := l.oldest
	for _, seg := range l.segments {
		for _, r := range seg.recs {
			if r.Offset != expect {
				l.oldest = r.Offset
			}
			expect = r.Offset + 1
			l.noteLatestLocked(r)
		}
	}
	// Always roll a fresh active segment at the resume offset: every
	// recovered segment stays sealed, so a reopened log never appends
	// into bytes it did not fully validate.
	if err := l.rollLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// rollLocked seals the active segment and opens a new one at the next
// offset.
func (l *Log) rollLocked() error {
	if n := len(l.segments); n > 0 {
		l.segments[n-1].sealed = true
	}
	if err := l.store.Create(l.next); err != nil {
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return l.dead
	}
	l.segments = append(l.segments, &segment{base: l.next})
	return nil
}

// Append appends a record and returns it as the log stored it: its
// offset, and its payload, a copy in the record's frame, so the caller
// may reuse its own; the key is retained as passed.
func (l *Log) Append(key string, payload []byte) (Record, error) {
	l.lock()
	defer l.unlock()
	if l.dead != nil {
		return Record{}, l.dead
	}
	if l.obsAppend != nil {
		start := l.clock.Now()
		defer func() { l.obsAppend.ObserveDuration(l.clock.Now().Sub(start)) }()
	}
	off := l.next
	// One frame per record: the store may keep it, and the index keeps
	// the payload as a subslice of it.
	frame := appendRecordFrame(make([]byte, 0, frameLen(off, key, payload)), off, key, payload)
	active := l.segments[len(l.segments)-1]
	n, err := l.store.Append(active.base, frame)
	if err != nil || n < len(frame) {
		if err == nil {
			err = fmt.Errorf("commitlog: short append (%d of %d bytes)", n, len(frame))
		}
		// The record is not (fully) durable: poison the log rather
		// than let the in-memory index diverge from the store.
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return Record{}, l.dead
	}
	rec := Record{Offset: off, Key: key, Payload: framePayload(frame, len(payload))}
	active.recs = append(active.recs, rec)
	active.bytes += int64(len(frame))
	l.noteLatestLocked(rec)
	l.next = off + 1
	if len(active.recs) >= l.opts.SegmentRecords || active.bytes >= segmentBytes {
		if err := l.rollLocked(); err != nil {
			return rec, err // the record itself is durable
		}
		l.maintainLocked()
	}
	return rec, nil
}

// maintainLocked enforces compaction and the segment-count bound after
// a seal. Store failures poison the log like any other write failure.
func (l *Log) maintainLocked() {
	if l.dead != nil {
		return
	}
	if l.opts.Compact && len(l.segments) >= 2 {
		l.compactSealedLocked()
	}
	if l.opts.MaxSegments <= 0 {
		return
	}
	for len(l.segments)-1 > l.opts.MaxSegments && l.dead == nil {
		if l.opts.Compact {
			// Merge the two oldest sealed segments; latest-per-key
			// retention means the merged result stays bounded.
			if !l.mergeOldestLocked() {
				return
			}
		} else if !l.dropOldestLocked() {
			return
		}
	}
}

// noteLatestLocked records rec as its key's newest offset (records
// arrive in offset order, at append and at Open).
func (l *Log) noteLatestLocked(rec Record) {
	if l.latest != nil && rec.Key != "" {
		l.latest[rec.Key] = rec.Offset
	}
}

// compactLocked appends to kept the records of recs that no newer
// record with the same key supersedes. It also returns the offset just
// past the newest record it dropped (0 when none): the floor the
// contiguous retained tail now starts at, at the lowest.
func (l *Log) compactLocked(kept, recs []Record) ([]Record, uint64) {
	var floor uint64
	for _, r := range recs {
		if r.Key != "" && l.latest[r.Key] > r.Offset {
			floor = r.Offset + 1
			continue
		}
		kept = append(kept, r)
	}
	return kept, floor
}

// compactSealedLocked key-compacts the segment that just sealed (the
// one before the fresh active segment).
func (l *Log) compactSealedLocked() {
	seg := l.segments[len(l.segments)-2]
	kept, floor := l.compactLocked(seg.recs[:0:0], seg.recs)
	if len(kept) == len(seg.recs) {
		return
	}
	l.obsCompactions.Inc()
	l.obsCompacted.Add(int64(len(seg.recs) - len(kept)))
	data := encodeRecords(kept)
	if err := l.store.Rewrite(seg.base, data); err != nil {
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return
	}
	seg.recs = kept
	seg.bytes = int64(len(data))
	l.oldest = max(l.oldest, floor)
}

// mergeOldestLocked folds the second-oldest sealed segment into the
// oldest, compacting as it merges, so the old region of the log stays
// bounded by key cardinality rather than growing with write volume.
func (l *Log) mergeOldestLocked() bool {
	if len(l.segments) < 3 { // need two sealed + active
		return false
	}
	a, b := l.segments[0], l.segments[1]
	if !a.sealed || !b.sealed {
		return false
	}
	merged, floorA := l.compactLocked(make([]Record, 0, len(a.recs)+len(b.recs)), a.recs)
	merged, floorB := l.compactLocked(merged, b.recs)
	data := encodeRecords(merged)
	if err := l.store.Rewrite(a.base, data); err != nil {
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return false
	}
	if err := l.store.Remove(b.base); err != nil {
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return false
	}
	a.recs = merged
	a.bytes = int64(len(data))
	l.segments = append(l.segments[:1], l.segments[2:]...)
	l.oldest = max(l.oldest, floorA, floorB)
	return true
}

// dropOldestLocked removes the oldest sealed segment entirely.
func (l *Log) dropOldestLocked() bool {
	if len(l.segments) < 2 {
		return false
	}
	seg := l.segments[0]
	if last, ok := seg.lastOffset(); ok {
		l.oldest = last + 1
	}
	if err := l.store.Remove(seg.base); err != nil {
		l.dead = fmt.Errorf("%w: %v", ErrDead, err)
		return false
	}
	l.segments = l.segments[1:]
	return true
}

// encodeRecords re-encodes records into one fresh segment buffer for a
// compaction rewrite or merge, and repoints their payloads into it.
func encodeRecords(recs []Record) []byte {
	size := 0
	for _, r := range recs {
		size += frameLen(r.Offset, r.Key, r.Payload)
	}
	data := make([]byte, 0, size)
	for i, r := range recs {
		data = appendRecordFrame(data, r.Offset, r.Key, r.Payload)
		recs[i].Payload = framePayload(data, len(r.Payload))
	}
	return data
}

// Close makes the log read-only — a later Append fails with ErrDead —
// and closes its store when the store is an io.Closer. Reads still
// answer from the in-memory index.
func (l *Log) Close() error {
	l.lock()
	defer l.unlock()
	if l.dead == nil {
		l.dead = errClosed
	}
	if c, ok := l.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// OldestOffset returns the retention floor: the first offset of the
// contiguous retained tail (older records may survive below it, with
// holes). A reader resuming below it has missed records and must
// resync from current state instead of replaying.
func (l *Log) OldestOffset() uint64 {
	l.lock()
	defer l.unlock()
	return l.oldest
}

// NextOffset returns the offset the next Append will assign.
func (l *Log) NextOffset() uint64 {
	l.lock()
	defer l.unlock()
	return l.next
}

// Scan calls fn on every retained record with Offset >= from, in offset
// order (compaction holes skipped), until fn returns false. It walks the
// index in place under the log's lock — no copy — so fn must not call
// back into the Log, and what it wants to keep of a record it copies.
func (l *Log) Scan(from uint64, fn func(Record) bool) {
	l.lock()
	defer l.unlock()
	l.scanLocked(from, fn)
}

func (l *Log) scanLocked(from uint64, fn func(Record) bool) {
	// Find the first segment whose last record reaches from. The empty
	// active segment counts as reaching it — nothing lies beyond — which
	// keeps the predicate monotone for the binary search.
	i := sort.Search(len(l.segments), func(i int) bool {
		last, ok := l.segments[i].lastOffset()
		return !ok || last >= from
	})
	for ; i < len(l.segments); i++ {
		recs := l.segments[i].recs
		j := sort.Search(len(recs), func(j int) bool { return recs[j].Offset >= from })
		for ; j < len(recs); j++ {
			if !fn(recs[j]) {
				return
			}
		}
	}
}

// Records returns a copy of every retained record with Offset >= from
// — the bulk-replay convenience over Scan.
func (l *Log) Records(from uint64) []Record {
	var out []Record
	l.Scan(from, func(r Record) bool {
		out = append(out, r)
		return true
	})
	return out
}
