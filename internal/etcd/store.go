package etcd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// KV is a key-value pair with MVCC metadata.
type KV struct {
	Key            string
	Value          []byte
	CreateRevision uint64
	ModRevision    uint64
}

// EventType classifies watch events.
type EventType int

// Watch event types.
const (
	EventPut EventType = iota + 1
	EventDelete
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "PUT"
	case EventDelete:
		return "DELETE"
	default:
		return "UNKNOWN"
	}
}

// Event is delivered live to watchers on every mutation under their
// key or prefix: a put carries the key's new KV, a delete the key and
// the deleting revision. Several deletes of one DeletePrefix share a
// revision.
type Event struct {
	Type     EventType
	KV       KV
	Revision uint64
}

// command is the replicated state machine operation.
type command struct {
	Op        cmdOp
	Key       string
	Value     []byte
	Prefix    bool
	ReqID     uint64 // for client response matching
	RequestBy int    // proposing node
	// Floor is the proposer's ack floor, carried by top-level commands
	// only (an entry has one): see storeState.raiseFloor.
	Floor uint64
	// Batch is the group-commit envelope payload (Op == opBatch): the
	// commands drained from the proposal queue, applied in order as one
	// atomically-replicated Raft entry.
	Batch []command
}

type cmdOp int

const (
	opPut cmdOp = iota + 1
	opDelete
)

// result is the outcome of applying a command.
type result struct {
	rev uint64
	ok  bool // the op took effect (a delete: some key existed)
	err error
}

// storeState is the replicated state machine: an MVCC map.
// All mutations arrive through Raft apply, so replicas stay identical.
// Request-ID deduplication makes application exactly-once even when a
// client re-proposes across a leader change and both proposals commit.
//
// Each call costs what it touches, not what the keyspace holds: range
// reads and prefix deletes walk one contiguous run of the ordered key
// index, and a write finds its watchers by lookups on the written key
// rather than by testing every watcher.
type storeState struct {
	mu sync.Mutex
	kv map[string]KV
	// keys holds every key of kv in ascending order, sharing kv's key
	// strings: the keys under a prefix are one contiguous run of it.
	keys []string
	rev  uint64
	// exact maps a watched key to its exact-key watchers, and prefixes a
	// watched prefix to its prefix watchers; each list is linked through
	// watcher.next. prefixLens counts the prefix watchers of each prefix
	// length, so a write looks up key[:L] once per watched length L.
	exact      map[string]*watcher
	prefixes   map[string]*watcher
	prefixLens map[int]int
	// appliedReq caches the result of each applied command whose ReqID
	// is at or above floor, the highest ack floor any applied entry
	// carried: the dedup window holds only in-flight proposals.
	appliedReq map[uint64]result
	floor      uint64

	// restores counts snapshot restores applied to this replica
	// (Cluster.SnapshotRestores).
	restores uint64

	// applySig is closed after an applied Raft entry — the event-driven
	// barrier leaderState and the batch loop park on instead of
	// poll-sleeping while the replica catches up. applyTaken records
	// that applyBarrier handed the current channel out, so an entry that
	// nobody awaits replaces nothing.
	applySig   chan struct{}
	applyTaken bool
}

// watcher receives events for a key or prefix. Its channel is closed,
// under the store lock, when the watcher is removed.
type watcher struct {
	key    string
	prefix bool
	ch     chan Event
	closed bool
	next   *watcher // the next watcher on the same key or prefix
}

func newStoreState() *storeState {
	return &storeState{
		kv:         make(map[string]KV),
		exact:      make(map[string]*watcher),
		prefixes:   make(map[string]*watcher),
		prefixLens: make(map[int]int),
		appliedReq: make(map[uint64]result),
		applySig:   make(chan struct{}),
	}
}

// applyBarrier returns a channel that closes after the next applied
// entry. Capture it BEFORE checking revision() so a concurrent apply
// cannot be missed.
func (s *storeState) applyBarrier() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyTaken = true
	return s.applySig
}

// signalApply broadcasts that an entry (possibly a whole batch) has
// been applied to this replica. The channel is closed and replaced only
// if applyBarrier handed it out since the last signal: a replica whose
// applies nobody awaits — every follower, most of the time — allocates
// no barrier per entry.
func (s *storeState) signalApply() {
	s.mu.Lock()
	if s.applyTaken {
		close(s.applySig)
		s.applySig = make(chan struct{})
		s.applyTaken = false
	}
	s.mu.Unlock()
}

// raiseFloor adopts an entry's ack floor — the client-session rule of
// the Raft dissertation (Ongaro 2014, §6.3). Every ReqID below the floor
// was answered, which means it applied at an earlier index, or its
// proposer gave up; either way a later copy is a stale duplicate, so its
// cached result can go. The floor rides in the replicated entry, so all
// replicas prune and skip alike. The table is swept only when the floor
// moves, and then holds only the previous window.
func (s *storeState) raiseFloor(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor <= s.floor {
		return
	}
	s.floor = floor
	for id := range s.appliedReq {
		if id < floor {
			delete(s.appliedReq, id)
		}
	}
}

// apply executes a replicated command; deterministic across replicas.
// A command whose ReqID has already been applied returns the cached
// result without mutating state, and one below the ack floor is skipped.
func (s *storeState) apply(c *command) result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.ReqID != 0 {
		if c.ReqID < s.floor {
			return result{} // nobody waits for it any more
		}
		if prev, ok := s.appliedReq[c.ReqID]; ok {
			return prev
		}
	}
	res := s.applyLocked(c)
	if c.ReqID != 0 {
		s.appliedReq[c.ReqID] = res
	}
	return res
}

func (s *storeState) applyLocked(c *command) result {
	switch c.Op {
	case opPut:
		return s.putLocked(c.Key, c.Value)
	case opDelete:
		return s.deleteLocked(c.Key, c.Prefix)
	default:
		return result{err: fmt.Errorf("etcd: unknown op %d", c.Op)}
	}
}

// putLocked stores value under key without copying it. The bytes must
// never change afterwards: the applier hands it a value decoded from a
// committed Raft entry, whose buffer is immutable and shared by every
// replica (the log, a follower's append and the stored KV alias one
// copy), and Get, List and watch events return it as is. Only the
// applier and tests call it with bytes.
func (s *storeState) putLocked(key string, value []byte) result {
	s.rev++
	old, existed := s.kv[key]
	kv := KV{Key: key, Value: value, ModRevision: s.rev}
	if existed {
		kv.CreateRevision = old.CreateRevision
	} else {
		kv.CreateRevision = s.rev
		i, _ := slices.BinarySearch(s.keys, key)
		s.keys = slices.Insert(s.keys, i, key)
	}
	s.kv[key] = kv
	s.notifyLocked(Event{Type: EventPut, KV: kv, Revision: s.rev})
	return result{rev: s.rev, ok: true}
}

func (s *storeState) deleteLocked(key string, prefix bool) result {
	lo, hi := s.keyRange(key, prefix)
	if lo == hi {
		return result{rev: s.rev, ok: false}
	}
	s.rev++
	for _, k := range s.keys[lo:hi] {
		delete(s.kv, k)
		s.notifyLocked(Event{Type: EventDelete, KV: KV{Key: k, ModRevision: s.rev}, Revision: s.rev})
	}
	s.keys = slices.Delete(s.keys, lo, hi)
	return result{rev: s.rev, ok: true}
}

// keyRange returns the run keys[lo:hi] that holds key (prefix=false)
// or every key under it (prefix=true): a binary search for the lower
// bound, then a walk over the run.
func (s *storeState) keyRange(key string, prefix bool) (lo, hi int) {
	lo, found := slices.BinarySearch(s.keys, key)
	if !prefix {
		if found {
			return lo, lo + 1
		}
		return lo, lo
	}
	hi = lo
	for hi < len(s.keys) && strings.HasPrefix(s.keys[hi], key) {
		hi++
	}
	return lo, hi
}

// notifyLocked delivers ev to the watchers of its key: the exact-key
// watchers, then the prefix watchers of each watched prefix length.
func (s *storeState) notifyLocked(ev Event) {
	key := ev.KV.Key
	s.deliverLocked(s.exact[key], ev)
	for n := range s.prefixLens {
		if n <= len(key) {
			s.deliverLocked(s.prefixes[key[:n]], ev)
		}
	}
}

// deliverLocked sends ev to every watcher of the list that starts at w.
// A slow watcher is closed rather than sent a gap, so the consumer sees
// the gap as the end of its stream. The close unlinks the watcher (and
// may delete the prefixLens entry notifyLocked is visiting, which a map
// range allows), so the walk saves each next pointer before the send.
func (s *storeState) deliverLocked(w *watcher, ev Event) {
	for w != nil {
		next := w.next
		select {
		case w.ch <- ev:
		default:
			s.removeWatcherLocked(w)
		}
		w = next
	}
}

// revision returns the replica's current revision.
func (s *storeState) revision() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// get returns the KV for key.
func (s *storeState) get(key string) (KV, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kv, ok := s.kv[key]
	return kv, ok
}

// list returns all KVs under prefix, key-sorted.
func (s *storeState) list(prefix string) []KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := s.keyRange(prefix, true)
	if lo == hi {
		return nil
	}
	out := make([]KV, hi-lo)
	for i, k := range s.keys[lo:hi] {
		out[i] = s.kv[k]
	}
	return out
}

// addWatcher registers a watcher that receives every later event
// under key (or, with prefix, every key under it).
func (s *storeState) addWatcher(key string, prefix bool, buf int) *watcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &watcher{key: key, prefix: prefix, ch: make(chan Event, buf)}
	lists := s.exact
	if prefix {
		lists = s.prefixes
		s.prefixLens[len(key)]++
	}
	w.next = lists[key]
	lists[key] = w
	return w
}

// removeWatcher unregisters w and closes its channel; idempotent.
func (s *storeState) removeWatcher(w *watcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeWatcherLocked(w)
}

func (s *storeState) removeWatcherLocked(w *watcher) {
	if w.closed {
		return
	}
	w.closed = true
	close(w.ch)
	lists := s.exact
	if w.prefix {
		lists = s.prefixes
		s.prefixLens[len(w.key)]--
		if s.prefixLens[len(w.key)] == 0 {
			delete(s.prefixLens, len(w.key))
		}
	}
	head := lists[w.key]
	if head == w {
		head = w.next
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == w {
				p.next = w.next
				break
			}
		}
	}
	if head == nil {
		delete(lists, w.key)
	} else {
		lists[w.key] = head
	}
}

// closeWatchers removes every watcher of this replica.
func (s *storeState) closeWatchers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, lists := range []map[string]*watcher{s.exact, s.prefixes} {
		for _, head := range lists {
			for w := head; w != nil; w = w.next {
				w.closed = true
				close(w.ch)
			}
		}
		clear(lists)
	}
	clear(s.prefixLens)
}

// snapshot serializes the KV map for Raft compaction.
func (s *storeState) snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	snap := storeSnapshot{
		KVs: make([]KV, len(s.keys)), Rev: s.rev, Floor: s.floor,
	}
	for i, k := range s.keys {
		snap.KVs[i] = s.kv[k]
	}
	for id := range s.appliedReq {
		snap.Applied = append(snap.Applied, id)
	}
	sort.Slice(snap.Applied, func(i, j int) bool { return snap.Applied[i] < snap.Applied[j] })
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		panic(fmt.Sprintf("etcd: snapshot encode: %v", err)) // cannot fail for these types
	}
	return buf.Bytes()
}

func (s *storeState) restore(data []byte) {
	var snap storeSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A snapshot lists its KVs key-sorted, so they rebuild the index
	// in order.
	s.kv = make(map[string]KV, len(snap.KVs))
	s.keys = make([]string, len(snap.KVs))
	for i, kv := range snap.KVs {
		s.kv[kv.Key] = kv
		s.keys[i] = kv.Key
	}
	s.rev = snap.Rev
	s.floor = snap.Floor
	s.appliedReq = make(map[uint64]result, len(snap.Applied))
	for _, id := range snap.Applied {
		s.appliedReq[id] = result{}
	}
	s.restores++
}

// restoreCount returns how many snapshot restores this replica applied.
func (s *storeState) restoreCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restores
}

type storeSnapshot struct {
	KVs []KV
	Rev uint64
	// Applied is the dedup window, every ID at or above Floor, so a
	// restored replica rejects the same duplicates as the leader.
	Applied []uint64
	Floor   uint64
}

// Store errors.
var (
	// ErrTimeout reports that a proposal did not commit in time.
	ErrTimeout = errors.New("etcd: proposal timed out")
	// ErrStopped reports use of a stopped cluster.
	ErrStopped = errors.New("etcd: cluster stopped")
)
