// Package mongo implements the metadata store FfDL keeps job documents
// in: a MongoDB-like in-process document database with collections,
// equality filters, set/push updates, hash indexes, an oplog that feeds
// change streams, and reads of a document's newest oplog image — the
// model of a read from a caught-up secondary (Collection.OplogImage).
// The paper stores job metadata, identifiers, resource requirements,
// user ids, status history and other long-lived business artifacts here
// (§3.2); the API surface below covers exactly that usage: documents are
// inserted, read, updated and upserted, never deleted. A stored document
// is immutable: reads hand out the stored map and writes keep the values
// they are given, so neither copies a document (see Doc).
package mongo

import (
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
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
// # Immutable once stored
//
// A stored document is never written again: every update stores a new
// top-level map in place of the old one. So reads (Find, FindOne,
// OplogImage, change-stream events) hand out the stored map itself, and
// writes (Insert, UpdateOne, Upsert) keep the values they are given. The
// rules callers must follow:
//
//   - A Doc a read returned is read-only, at every depth, and stays as
//     it was when read: later updates never show in it.
//   - A value handed to a write belongs to the store once the write is
//     made; the caller must not write it afterwards.
//   - The store writes a value it was handed for one reason only: a
//     nested map[string]any becomes a Doc by type conversion in place,
//     which shares the map (see own).
//
// This makes a read O(1) per document, whatever its status history
// holds. In test binaries a mutation detector enforces the rule for
// top-level fields (see Collection.check).
type Doc map[string]any

// Clone returns a fresh top-level map holding d's values: nested
// documents and lists are shared, not copied.
func (d Doc) Clone() Doc { return maps.Clone(d) }

// own returns v as the store keeps it: a map[string]any, at any depth,
// becomes a Doc. The conversion shares the map, so a value the store
// was handed is written only where a list element or a document field
// holds a map[string]any; a value without one is only read.
func own(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return own(Doc(x))
	case Doc:
		for k, e := range x {
			if _, plain := e.(map[string]any); plain {
				x[k] = own(e)
			} else {
				own(e)
			}
		}
	case []any:
		for i, e := range x {
			if _, plain := e.(map[string]any); plain {
				x[i] = own(e)
			} else {
				own(e)
			}
		}
	}
	return v
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

// apply writes u into d, the next version's fresh top-level map. Nested
// containers are shared with stored versions and the reads that handed
// them out, so none is written in place: Set replaces the top-level
// value.
//
// Push deliberately appends WITHOUT copying the array: versions of a
// stored document form a linear history (writes are serialized per
// collection), so the append writes at an index beyond the length of
// every earlier version's array — invisible to every read. This is
// what makes a status-history append O(1) amortized instead of
// O(history).
func (u Update) apply(d Doc) {
	for k, v := range u.Set {
		d[k] = own(v)
	}
	for k, v := range u.Push {
		arr, _ := d[k].([]any)
		d[k] = append(arr, own(v))
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
	// prints holds each stored document's fingerprint by _id in test
	// binaries, and is nil otherwise (see check).
	prints map[string]uint64
}

// check is the mutation detector, after kube's, and runs only in test
// binaries: it panics if document id's stored version d no longer
// matches the fingerprint taken when d was stored. A document is
// checked at its next write and at DB.Close.
func (c *Collection) check(id string, d Doc) {
	if c.prints != nil && fingerprint(d) != c.prints[id] {
		panic("mongo: stored document " + c.name + "/" + id + " was mutated")
	}
}

// track fingerprints d, which is being stored under id.
func (c *Collection) track(id string, d Doc) {
	if c.prints != nil {
		c.prints[id] = fingerprint(d)
	}
}

// checkAll runs check over every stored document.
func (c *Collection) checkAll() {
	if c.prints == nil {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for id, d := range c.docs {
		c.check(id, d)
	}
}

// printSeed seeds the fingerprints of one process.
var printSeed = maphash.MakeSeed()

// fingerprint hashes d's top-level fields without allocating: each key
// with its value's identity — a scalar's value, a nested document's or
// list's address, and a list's length. The per-field hashes are summed,
// so map order does not matter, and nothing below the top level is
// read: the cost is O(top-level fields).
func fingerprint(d Doc) uint64 {
	sum := uint64(len(d))
	for k, v := range d {
		var h, tag uint64
		switch x := v.(type) {
		case nil:
		case string:
			h, tag = maphash.String(printSeed, x), 1
		case int:
			h, tag = uint64(x), 2
		case bool:
			if x {
				h = 1
			}
			tag = 3
		case Doc, map[string]any:
			h, tag = uint64(reflect.ValueOf(x).Pointer()), 4
		case []any:
			h, tag = uint64(reflect.ValueOf(x).Pointer())^mix(uint64(len(x))), 5
		default:
			tag = 6 // a type the codec refuses at the write
		}
		sum += mix(maphash.String(printSeed, k) ^ mix(h+tag))
	}
	return sum
}

// mix is a 64-bit finalizer (MurmurHash3's fmix64).
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
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

// Insert stores d under its string _id, which it returns; a document
// without one is refused. The store keeps d itself, so the caller must
// not write d once it is handed over (see the Doc rules).
func (c *Collection) Insert(d Doc) (string, error) {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return "", ErrUnavailable
	}
	id, _ := d["_id"].(string)
	if id == "" {
		return "", errNoID
	}
	own(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	return id, c.insertLocked(id, d)
}

// insertLocked installs a new document the store already owns.
func (c *Collection) insertLocked(id string, d Doc) error {
	if _, exists := c.docs[id]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	// The entry is logged first: an insert the oplog refused is not
	// acknowledged and leaves no document behind. Stored maps are never
	// written in place, so the oplog entry and the document share one.
	if err := c.db.logOp(op{Kind: "insert", Coll: c.name, Doc: d}); err != nil {
		return err
	}
	c.docs[id] = d
	c.track(id, d)
	c.indexMoveLocked(nil, d, id)
	return nil
}

// candidatesLocked returns the ids potentially matching the filter: the
// primary key for an _id filter, or a hash index's list when the filter
// names an indexed field with a string value — the index's own slice,
// which the caller must not modify. all reports that neither narrows
// the filter: every document is a candidate, and ids is nil.
func (c *Collection) candidatesLocked(f Filter) (ids []string, all bool) {
	if id, ok := f["_id"].(string); ok {
		return []string{id}, false
	}
	for field, v := range f {
		key, isStr := v.(string)
		if idx, ok := c.indexes[field]; ok && isStr {
			return idx[key], false
		}
	}
	return nil, true
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
			return d, nil
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
// oplog holds it — read-only, like FindOne's — without
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
	return o.Doc, true
}

// FindOpts shape Find results.
type FindOpts struct {
	// SortBy is a field whose string values order the results
	// ascending; empty sorts by _id.
	SortBy string
}

// Find returns the stored documents that match, read-only (see the Doc
// rules), in SortBy order — nil, never an empty slice, while the
// primary is unavailable, which is how callers that must not mistake an
// outage for "no documents" tell the two apart. The result slice is the
// caller's own; the documents it holds are shared.
func (c *Collection) Find(f Filter, opts FindOpts) []Doc {
	defer c.db.opEnd(c.db.opStart())
	if c.db.Unavailable() {
		return nil // level-triggered consumers re-read on their next pass
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids, all := c.candidatesLocked(f)
	var out []Doc
	if all {
		out = make([]Doc, 0, len(c.docs))
		for _, d := range c.docs {
			if f.matches(d) {
				out = append(out, d)
			}
		}
	} else {
		out = make([]Doc, 0, len(ids))
		for _, id := range ids {
			if d, ok := c.docs[id]; ok && f.matches(d) {
				out = append(out, d)
			}
		}
	}
	sortBy := opts.SortBy
	if sortBy == "" {
		sortBy = "_id"
	}
	slices.SortStableFunc(out, func(a, b Doc) int {
		va, _ := a[sortBy].(string)
		vb, _ := b[sortBy].(string)
		return strings.Compare(va, vb)
	})
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
	// The first match in _id order: the least matching id.
	var first string
	var match Doc
	consider := func(id string, d Doc) {
		if (match == nil || id < first) && f.matches(d) {
			first, match = id, d
		}
	}
	if ids, all := c.candidatesLocked(f); all {
		for id, d := range c.docs {
			consider(id, d)
		}
	} else {
		for _, id := range ids {
			if d, ok := c.docs[id]; ok {
				consider(id, d)
			}
		}
	}
	if match == nil {
		return ErrNotFound
	}
	return c.replaceLocked(first, match, u)
}

// replaceLocked installs u applied to document id's stored version d.
// The next version is a fresh top-level map — the one copy a write
// makes — and is also the oplog entry; only a logged version is
// installed, so an update the oplog refused is not acknowledged and
// leaves the stored document as it was.
func (c *Collection) replaceLocked(id string, d Doc, u Update) error {
	c.check(id, d)
	next := d.Clone()
	u.apply(next)
	next["_id"] = d["_id"] // _id is immutable; the stored value is already boxed
	if err := c.db.logOp(op{Kind: "update", Coll: c.name, Doc: next}); err != nil {
		return err
	}
	c.docs[id] = next
	c.track(id, next)
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
	d := make(Doc, len(f)+len(u.Set)+len(u.Push))
	for k, v := range f {
		d[k] = own(v)
	}
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
// ErrUnavailable, while reads still answer from the collections. In test
// binaries it runs the mutation detector over every stored document.
func (db *DB) Close() error {
	db.mu.Lock()
	colls := slices.Collect(maps.Values(db.colls))
	db.mu.Unlock()
	for _, c := range colls {
		c.checkAll()
	}
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
	c.track(id, o.Doc)
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
	if testing.Testing() {
		c.prints = make(map[string]uint64)
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
	// Doc is the full post-image (nil on a resync marker): a stored
	// version the consumer may retain but must not write (see the Doc
	// rules).
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
				ev.Doc = o.Doc
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
