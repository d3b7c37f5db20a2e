// Package mongo implements the metadata store FfDL keeps job documents
// in: a MongoDB-like in-process document database with collections,
// equality filters, set/push updates, hash indexes, an oplog that feeds
// change streams, and reads of a document's newest oplog image — the
// model of a read from a caught-up secondary (Collection.OplogImage).
// The paper stores job metadata, identifiers, resource requirements,
// user ids, status history and other long-lived business artifacts here
// (§3.2); the API surface below covers exactly that usage: documents are
// inserted, read, updated and upserted, never deleted.
package mongo

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

// Doc is a document. Its values are strings, ints, bools, nil, nested
// Docs and []any lists of those — the value types the oplog codec
// (opcodec.go) stores; a write carrying any other type is refused. Every
// document names its own string _id, and filters and updates address
// top-level fields only.
//
// # Copy-on-write semantics
//
// Documents handed out by reads (Find, FindOne, OplogImage, change-stream
// events) are copy-on-write views: the top-level map is a private copy,
// but nested documents and slices are SHARED with the store. The
// mutation rules callers must follow:
//
//   - Top-level fields of a returned Doc may be freely assigned.
//   - Nested values (anything below the top level) are read-only; a
//     caller that needs to mutate them must DeepClone the Doc first.
//   - All store-side mutations go through Update, which replaces
//     top-level values on a fresh copy of the top-level map and never
//     writes a nested container in place, so a view taken before an
//     update never observes it.
//
// This is what makes reads O(top-level fields) instead of O(document):
// a job document dragging a 10k-entry status history clones in constant
// time. See docs/architecture.md ("Throughput & batching").
type Doc map[string]any

// Clone returns a copy-on-write view of the document: a fresh top-level
// map sharing nested values with the original. See the Doc mutation
// rules; use DeepClone before mutating nested state.
func (d Doc) Clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// DeepClone fully copies the document, including nested documents and
// slices, yielding a view the caller may mutate arbitrarily.
func (d Doc) DeepClone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

// cloneValue deep-copies a value, storing a map[string]any as a Doc.
func cloneValue(v any) any {
	switch x := v.(type) {
	case Doc:
		return x.DeepClone()
	case map[string]any:
		return Doc(x).DeepClone()
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// Filter is an equality query: top-level field → value. A document
// matches when every field is present and == its value. Only string,
// int and bool values can match; a list or document value never does.
type Filter map[string]any

// matches reports whether d satisfies the filter.
func (f Filter) matches(d Doc) bool {
	for k, want := range f {
		switch want.(type) {
		case string, int, bool:
		default:
			return false // == on a list or document would panic
		}
		if got, ok := d[k]; !ok || got != want {
			return false
		}
	}
	return true
}

// Update describes a mutation of top-level fields.
type Update struct {
	// Set assigns fields.
	Set Doc
	// Push appends to array fields.
	Push map[string]any
}

// apply mutates d, the store's private copy of a document's top-level
// map. Nested containers may be shared with reader views, so none is
// written in place: Set replaces the top-level value.
//
// Push deliberately appends WITHOUT copying the array: versions of a
// stored document form a linear history (writes are serialized per
// collection), so the append writes at an index beyond the length of
// every previously handed-out view — invisible to all of them. This is
// what makes a status-history append O(1) amortized instead of
// O(history).
func (u Update) apply(d Doc) {
	for k, v := range u.Set {
		d[k] = cloneValue(v)
	}
	for k, v := range u.Push {
		arr, _ := d[k].([]any)
		d[k] = append(arr, cloneValue(v))
	}
}

// Errors.
var (
	// ErrNotFound reports that no document matched.
	ErrNotFound = errors.New("mongo: document not found")
	// ErrDuplicateID reports an insert with an existing _id.
	ErrDuplicateID = errors.New("mongo: duplicate _id")
	// ErrUnavailable reports that the primary is (simulated) down — a
	// failover window injected by SetUnavailable — or that the oplog
	// store refused a write. A refused write is not acknowledged and
	// leaves no trace: an insert or update the oplog did not take changes
	// no document. Erroring operations (FindOne, Insert, UpdateOne,
	// Upsert) surface it; Find, which has no error channel, returns nil,
	// which is safe for its level-triggered consumers (they re-read on
	// the next pass). Callers classify it as transient and retry under a
	// resilience policy.
	ErrUnavailable = errors.New("mongo: primary unavailable")

	errNoID = errors.New("mongo: document has no string _id")
)

// Collection is a set of documents keyed by _id with optional secondary
// hash indexes.
type Collection struct {
	mu      sync.RWMutex
	name    string
	docs    map[string]Doc
	indexes map[string]map[string][]string // field -> string value -> ids
	db      *DB
}

// EnsureIndex builds a hash index over a field's string values to
// accelerate equality queries (the paper indexes job history by
// user/org).
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[field]; ok {
		return
	}
	idx := make(map[string][]string)
	for id, d := range c.docs {
		if key, ok := d[field].(string); ok {
			idx[key] = append(idx[key], id)
		}
	}
	c.indexes[field] = idx
}

// indexMoveLocked updates the indexes for id's document going from
// prev to next (prev is nil for an insert). Only a field whose string
// value changed moves id; a list whose key the write left as it was
// keeps id in place, so a status write never scans the user's list.
func (c *Collection) indexMoveLocked(prev, next Doc, id string) {
	for field, idx := range c.indexes {
		from, had := prev[field].(string)
		to, has := next[field].(string)
		if had == has && from == to {
			continue
		}
		if had {
			if i := slices.Index(idx[from], id); i >= 0 {
				idx[from] = slices.Delete(idx[from], i, i+1)
			}
		}
		if has {
			idx[to] = append(idx[to], id)
		}
	}
}

// Insert stores a document under its string _id, which it returns; a
// document without one is refused. The input is deep-copied: the store
// must never alias caller-owned memory, or later caller mutations would
// corrupt the copy-on-write views reads hand out.
func (c *Collection) Insert(d Doc) (string, error) {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return "", ErrUnavailable
	}
	id, _ := d["_id"].(string)
	if id == "" {
		return "", errNoID
	}
	stored := d.DeepClone()
	c.mu.Lock()
	defer c.mu.Unlock()
	return id, c.insertLocked(id, stored)
}

// insertLocked installs a new document the store already owns.
func (c *Collection) insertLocked(id string, stored Doc) error {
	if _, exists := c.docs[id]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	// The entry is logged first: an insert the oplog refused is not
	// acknowledged and leaves no document behind. Stored maps are never
	// written in place, so the oplog entry and the document share one.
	if err := c.db.logOp(op{Kind: "insert", Coll: c.name, Doc: stored}); err != nil {
		return err
	}
	c.docs[id] = stored
	c.indexMoveLocked(nil, stored, id)
	return nil
}

// candidatesLocked returns ids potentially matching the filter: the
// primary key directly for an _id filter (the hottest query shape —
// every status transition reads by _id), a hash index when the filter
// names an indexed field with a string value, and a full scan otherwise.
func (c *Collection) candidatesLocked(f Filter) []string {
	if id, ok := f["_id"].(string); ok {
		if _, exists := c.docs[id]; exists {
			return []string{id}
		}
		return nil
	}
	for field, v := range f {
		key, isStr := v.(string)
		if idx, ok := c.indexes[field]; ok && isStr {
			ids := idx[key]
			out := make([]string, len(ids))
			copy(out, ids)
			return out
		}
	}
	out := make([]string, 0, len(c.docs))
	for id := range c.docs {
		out = append(out, id)
	}
	return out
}

// FindOne returns the first matching document (in _id order for
// determinism).
func (c *Collection) FindOne(f Filter) (Doc, error) {
	if c.db.Unavailable() {
		return nil, ErrUnavailable
	}
	if id, ok := f["_id"].(string); ok && len(f) == 1 {
		// A primary-key lookup — every status transition and status read
		// is one — reads the map: nothing to match, nothing to sort.
		defer c.db.opEnd(c.db.opStart())
		c.mu.RLock()
		defer c.mu.RUnlock()
		if d, found := c.docs[id]; found {
			return d.Clone(), nil
		}
		return nil, ErrNotFound
	}
	docs := c.Find(f, FindOpts{})
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// OplogImage returns document id's newest post-image as the retained
// oplog holds it — a copy-on-write view, like FindOne's — without
// touching the collection. It is the package's one model of a read from
// a caught-up secondary (§3.2 replicates MongoDB for availability): it
// answers even while SetUnavailable is on, and degraded status reads
// use it. ok is false when no op on id is retained. Every entry is an
// insert or update carrying a full post-image, so only the last match
// is decoded.
func (c *Collection) OplogImage(id string) (Doc, bool) {
	defer c.db.opEnd(c.db.opStart())
	key := c.name + "\x00" + id
	var last commitlog.Record
	found := false
	c.db.oplog.Scan(0, func(rec commitlog.Record) bool {
		if rec.Key == key {
			last, found = rec, true // record payloads are never rewritten in place
		}
		return true
	})
	if !found {
		return nil, false
	}
	o, ok := recOp(last)
	if !ok || o.Doc == nil {
		return nil, false // an undecodable record
	}
	return o.Doc.Clone(), true
}

// FindOpts shape Find results.
type FindOpts struct {
	// SortBy is a field whose string values order the results
	// ascending; empty sorts by _id.
	SortBy string
}

// Find returns copy-on-write views of all matching documents in SortBy
// order (see the Doc mutation rules) — nil, never an empty slice, while
// the primary is unavailable, which is how callers that must not
// mistake an outage for "no documents" tell the two apart. Matching and
// sorting run against the stored documents under the read lock; only
// the sorted result is cloned.
func (c *Collection) Find(f Filter, opts FindOpts) []Doc {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return nil // level-triggered consumers re-read on their next pass
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.candidatesLocked(f)
	matched := make([]Doc, 0, len(ids))
	for _, id := range ids {
		d, ok := c.docs[id]
		if ok && f.matches(d) {
			matched = append(matched, d)
		}
	}
	sortBy := opts.SortBy
	if sortBy == "" {
		sortBy = "_id"
	}
	sort.SliceStable(matched, func(i, j int) bool {
		vi, _ := matched[i][sortBy].(string)
		vj, _ := matched[j][sortBy].(string)
		return vi < vj
	})
	out := make([]Doc, len(matched))
	for i, d := range matched {
		out[i] = d.Clone()
	}
	return out
}

// UpdateOne applies an update to the first matching document in _id
// order.
func (c *Collection) UpdateOne(f Filter, u Update) error {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return ErrUnavailable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updateLocked(f, u)
}

func (c *Collection) updateLocked(f Filter, u Update) error {
	if id, ok := f["_id"].(string); ok {
		// A primary-key update — every status write is one — reads the
		// map; the rest of the filter (a guard such as "preempted") still
		// has to match.
		if d, found := c.docs[id]; found && f.matches(d) {
			return c.replaceLocked(id, d, u)
		}
		return ErrNotFound
	}
	ids := c.candidatesLocked(f)
	sort.Strings(ids)
	for _, id := range ids {
		if d, ok := c.docs[id]; ok && f.matches(d) {
			return c.replaceLocked(id, d, u)
		}
	}
	return ErrNotFound
}

// replaceLocked installs u applied to document id's stored version d.
// The update builds the next version in a copy-on-write view, which is
// also the oplog entry; only a logged version is installed, so an update
// the oplog refused is not acknowledged and leaves the stored document
// as it was.
func (c *Collection) replaceLocked(id string, d Doc, u Update) error {
	next := d.Clone()
	u.apply(next)
	next["_id"] = id // _id is immutable
	if err := c.db.logOp(op{Kind: "update", Coll: c.name, Doc: next}); err != nil {
		return err
	}
	c.docs[id] = next
	c.indexMoveLocked(d, next, id)
	return nil
}

// Upsert updates the first match or inserts a new document from the
// filter's fields plus the update, which between them must name its
// _id. Both steps run under one hold of the collection lock, so
// concurrent upserts of one new _id insert it once and update it after.
func (c *Collection) Upsert(f Filter, u Update) error {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return ErrUnavailable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.updateLocked(f, u); !errors.Is(err, ErrNotFound) {
		return err
	}
	d := Doc(f).DeepClone()
	u.apply(d)
	id, _ := d["_id"].(string)
	if id == "" {
		return errNoID
	}
	return c.insertLocked(id, d)
}

// size returns the number of documents.
func (c *Collection) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// op is one oplog entry: an insert or update carrying the document's
// full post-image, whose _id keys the entry. ID is a field of the
// durable layout (opcodec.go) that nothing fills.
type op struct {
	Seq  uint64
	Kind string
	Coll string
	Doc  Doc
	ID   string
}

// DB is a database: named collections plus an oplog that feeds change
// streams (Watch) and oplog-image reads (Collection.OplogImage). The oplog rides the
// platform's commit log (internal/commitlog): entries are records keyed
// by collection and _id, sequence numbers are log offsets, and
// retention (key-compaction, or dropping whole sealed segments) raises
// the floor past every entry it drops — so a slow ChangeStream either
// replays the contiguous retained history or is told explicitly (a
// "resync" event) that its token fell below the retained floor. The
// previous ring buffer instead discarded its older half in place once
// it passed 64k entries, and a stale resume silently started at the new
// floor.
type DB struct {
	mu      sync.Mutex
	colls   map[string]*Collection
	oplog   *commitlog.Log
	opSeq   uint64
	subs    map[int]chan op
	nextSub int
	// encBuf is logOp's encode scratch, guarded by mu; the log copies
	// each payload into its own frame.
	encBuf []byte
	// obsOp/clock time every collection operation into the platform's
	// "mongo.op_latency" histogram; both nil on an uninstrumented DB.
	obsOp *obs.Histogram
	clock sim.Clock
	// unavailable simulates a primary failover window: erroring
	// operations return ErrUnavailable while set. Guarded by mu.
	unavailable bool
}

// SetUnavailable toggles a simulated primary outage: while on, erroring
// operations return ErrUnavailable and Find returns nil. Committed
// state is untouched — this is a failover window, not a crash.
func (db *DB) SetUnavailable(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.unavailable = on
}

// Unavailable reports whether a simulated outage is active.
func (db *DB) Unavailable() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.unavailable
}

// Options configures Open.
type Options struct {
	// Persist selects the oplog's retention. Set, sealed segments are
	// key-compacted, so retention always keeps at least the newest op
	// per document — which is what makes collections rebuildable from
	// the retained log on reopen. Unset, the oldest sealed segment is
	// dropped past the bound. Either way every entry is encoded into its
	// record payload (opcodec.go).
	Persist bool
	// Obs, when non-nil, times every collection operation into the
	// "mongo.op_latency" histogram and instruments the oplog's commit
	// log. Nil runs the database uninstrumented at zero cost.
	Obs *obs.Registry
	// Clock provides the timestamps for instrumented operations
	// (defaults to the real clock when Obs is set and Clock is nil).
	Clock sim.Clock
}

// opStart begins timing one instrumented collection operation; it
// returns the zero time on an uninstrumented DB so the paired opEnd
// no-ops. Use as `defer db.opEnd(db.opStart())`.
func (db *DB) opStart() time.Time {
	if db.obsOp == nil {
		return time.Time{}
	}
	return db.clock.Now()
}

func (db *DB) opEnd(start time.Time) {
	if start.IsZero() {
		return
	}
	db.obsOp.ObserveDuration(db.clock.Now().Sub(start))
}

// oplogOptions bounds the retained oplog at ~64k entries (64 sealed
// segments of 1024), matching the old ring's cap but trimming
// segment-at-a-time with an observable floor instead of halving in
// place.
func oplogOptions() commitlog.Options {
	return commitlog.Options{
		// Offsets coincide with the oplog's historical 1-based Seqs.
		FirstOffset:    1,
		SegmentRecords: 1024,
		MaxSegments:    64,
	}
}

// NewDB returns an empty database over a fresh in-memory oplog. It is
// the infallible constructor: an empty MemStore cannot fail to open.
// Durable databases use Open, which surfaces store errors instead of
// panicking.
func NewDB() *DB {
	db, err := Open(commitlog.NewMemStore(), Options{})
	if err != nil {
		panic(fmt.Sprintf("mongo: oplog open on empty store cannot fail: %v", err))
	}
	return db
}

// Open opens a database over the given oplog store, recovering whatever
// the store holds: collections are rebuilt by replaying the retained
// oplog (key-compaction keeps at least the newest op per document, and
// update entries carry full post-images, so the replay converges on the
// latest committed state), and the op sequence resumes past the last
// persisted record. An empty store yields an empty database. A torn
// oplog tail — a crash mid-append — is truncated to the last valid
// record by the commit log's own recovery; Open never fails on one.
func Open(store commitlog.SegmentStore, opts Options) (*DB, error) {
	lopts := oplogOptions()
	if opts.Persist {
		// Without compaction, MaxSegments retention would eventually drop
		// the only insert a long-lived document ever had; latest-per-key
		// retention keeps recovery complete at any log length.
		lopts.Compact = true
	}
	lopts.Obs = opts.Obs
	lopts.Clock = opts.Clock
	log, err := commitlog.Open(store, lopts)
	if err != nil {
		return nil, fmt.Errorf("mongo: open oplog: %w", err)
	}
	db := &DB{
		colls: make(map[string]*Collection),
		oplog: log,
		subs:  make(map[int]chan op),
	}
	if opts.Obs != nil {
		db.obsOp = opts.Obs.Histogram("mongo.op_latency")
		db.clock = opts.Clock
		if db.clock == nil {
			db.clock = sim.NewRealClock()
		}
	}
	if next := log.NextOffset(); next > lopts.FirstOffset {
		db.opSeq = next - 1
	}
	for _, rec := range log.Records(0) {
		if o, ok := recOp(rec); ok {
			db.applyRecovered(o)
		}
	}
	return db, nil
}

// Close closes the oplog and its store: every later write fails with
// ErrUnavailable, while reads still answer from the collections.
func (db *DB) Close() error {
	return db.oplog.Close()
}

// applyRecovered replays one recovered oplog entry into the collections
// during Open — without re-logging it (it is already in the log).
func (db *DB) applyRecovered(o op) {
	id, _ := o.Doc["_id"].(string)
	if (o.Kind != "insert" && o.Kind != "update") || id == "" {
		return
	}
	c := db.C(o.Coll)
	c.mu.Lock()
	c.indexMoveLocked(c.docs[id], o.Doc, id)
	c.docs[id] = o.Doc
	c.mu.Unlock()
}

// recOp decodes the op a log record's payload carries.
func recOp(rec commitlog.Record) (op, bool) {
	o, err := decodeOp(rec.Payload)
	return o, err == nil
}

// C returns (creating if needed) the named collection.
func (db *DB) C(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.colls[name]; ok {
		return c
	}
	c := &Collection{
		name:    name,
		docs:    make(map[string]Doc),
		indexes: make(map[string]map[string][]string),
		db:      db,
	}
	db.colls[name] = c
	return c
}

// logOp appends an oplog entry and fans it out to subscribers. A write
// the oplog did not take must not be acknowledged — it would not survive
// a restart — so a failed append is returned as ErrUnavailable: callers
// retry, trip their breaker and shed, as for any other store outage.
func (db *DB) logOp(o op) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	id, _ := o.Doc["_id"].(string)
	// The op is keyed by collection+_id; its Seq is the record's offset,
	// minted up front so the encoded entry carries it — db.mu serializes
	// appends, so NextOffset is exact. The payload is the op's only
	// body, so the bytes in the store are self-contained.
	o.Seq = db.oplog.NextOffset()
	var err error
	if db.encBuf, err = encodeOp(db.encBuf[:0], o); err != nil {
		// A value outside the codec's tagged set is a type-contract
		// violation by the writer, not an I/O condition; dropping the
		// entry would silently lose the write at recovery.
		panic(fmt.Sprintf("mongo: oplog entry for %s/%s: %v", o.Coll, id, err))
	}
	if _, err = db.oplog.Append(o.Coll+"\x00"+id, db.encBuf); err != nil {
		return fmt.Errorf("%w: oplog append: %v", ErrUnavailable, err) // never half-publish
	}
	db.opSeq = o.Seq
	for _, ch := range db.subs {
		select {
		case ch <- o:
		default:
			// Slow subscriber: drop. Change-stream consumers detect
			// the Seq gap and recover from the collections, which
			// remain the source of truth.
		}
	}
	return nil
}

// OplogLen returns the current oplog sequence number.
func (db *DB) OplogLen() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.opSeq
}

// addSub registers an oplog subscriber and returns its id plus the
// retained backlog with Seq > fromSeq, starting no lower than the floor
// (held-lock snapshot, so backlog and live feed are contiguous).
// truncated reports that fromSeq predates the retained floor, so the
// backlog — the contiguous tail from the floor — is NOT a continuation
// of the consumer's history.
func (db *DB) addSub(ch chan op, fromSeq uint64) (id int, backlog []op, truncated bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextSub++
	db.subs[db.nextSub] = ch
	floor := db.oplog.OldestOffset()
	truncated = fromSeq > 0 && fromSeq+1 < floor
	for _, rec := range db.oplog.Records(max(fromSeq+1, floor)) {
		if o, ok := recOp(rec); ok {
			backlog = append(backlog, o)
		}
	}
	return db.nextSub, backlog, truncated
}

func (db *DB) removeSub(id int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.subs, id)
}

// ChangeEvent is one committed write delivered by a ChangeStream.
type ChangeEvent struct {
	// Seq is the oplog sequence number — a commit-log offset, the
	// stream's resume token. Strictly increasing within a stream. A
	// resume token that fell below the retained floor is announced with
	// an explicit Kind "resync" event (never a silent jump); a jump
	// without a marker means live-feed lag dropped writes, and either
	// way the consumer re-reads the collection, which remains the
	// source of truth.
	Seq  uint64
	Kind string // "insert", "update" or "resync"
	Coll string
	// Doc is the full post-image (nil on a resync marker). It is a
	// copy-on-write view the consumer may retain; nested values are
	// read-only (DeepClone before mutating — see the Doc mutation rules).
	Doc Doc
	// ID is the _id of the affected document.
	ID string
}

// ChangeStream tails one collection's committed writes in oplog order —
// the equivalent of a MongoDB change stream. Events carry strictly
// increasing Seq tokens; delivery is at-least-resumable, never silently
// reordered: a consumer that sees a Seq gap (oplog trimmed past its
// resume point, or lag drops) refills from the collection itself.
// See docs/watch-protocol.md ("The MongoDB change feed") for the
// contract and its consumers.
type ChangeStream struct {
	db   *DB
	id   int
	ch   chan ChangeEvent
	stop chan struct{}
	once sync.Once
}

// Events returns the stream's delivery channel; it closes on Cancel.
func (cs *ChangeStream) Events() <-chan ChangeEvent { return cs.ch }

// Cancel detaches the stream and closes its channel.
func (cs *ChangeStream) Cancel() {
	cs.once.Do(func() {
		cs.db.removeSub(cs.id)
		close(cs.stop)
	})
}

// Watch opens a change stream over one collection ("" = all), starting
// after oplog sequence fromSeq (0 = from the retained floor). If
// fromSeq > 0 predates the floor, the stream's first delivery is an
// explicit Kind "resync" event — the cue to re-read the collection —
// followed by the contiguous retained history from the floor; a stale
// resume is never a silent gap.
func (db *DB) Watch(coll string, fromSeq uint64) *ChangeStream {
	live := make(chan op, 1024)
	id, backlog, truncated := db.addSub(live, fromSeq)
	cs := &ChangeStream{
		db:   db,
		id:   id,
		ch:   make(chan ChangeEvent, 256),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(cs.ch)
		last := fromSeq
		if truncated {
			// The marker's Seq sits just below the first replayed
			// record, keeping the stream's Seqs strictly increasing and
			// contiguous after the one announced discontinuity.
			marker := ChangeEvent{Kind: "resync", Coll: coll, Seq: fromSeq}
			if len(backlog) > 0 {
				marker.Seq = backlog[0].Seq - 1
			}
			select {
			case cs.ch <- marker:
				last = marker.Seq
			case <-cs.stop:
				return
			}
		}
		deliver := func(o op) bool {
			// Skip duplicates across the backlog/live seam and other
			// collections' writes.
			if o.Seq <= last {
				return true
			}
			last = o.Seq
			if coll != "" && o.Coll != coll {
				return true
			}
			ev := ChangeEvent{Seq: o.Seq, Kind: o.Kind, Coll: o.Coll}
			if o.Doc != nil {
				ev.Doc = o.Doc.Clone()
				ev.ID, _ = o.Doc["_id"].(string)
			}
			select {
			case cs.ch <- ev:
				return true
			case <-cs.stop:
				return false
			}
		}
		for _, o := range backlog {
			if !deliver(o) {
				return
			}
		}
		for {
			select {
			case <-cs.stop:
				return
			case o := <-live:
				if !deliver(o) {
					return
				}
			}
		}
	}()
	return cs
}
