package kube

import (
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Store is the API-server state: typed object maps with watch streams.
// A stored object is immutable, as in a client-go informer cache: reads
// and watch events share the stored pointers, and every write stores a
// new object in place of the old one. Callers must not mutate what a
// read or an event returns. In test binaries a mutation detector
// enforces this (see track).
type Store struct {
	mu      sync.RWMutex
	objects map[string]map[string]any // kind -> name -> object
	// owned indexes pod names by owner, each slice name-sorted and
	// sharing its strings with the pod map's keys, so a controller's
	// per-owner work never scans the pods of finished jobs. Put, Delete
	// and UpdatePod keep it under mu.
	owned    map[OwnerRef][]string
	watchers []*storeWatcher
	nextUID  uint64
	// events is a ring of the newest maxEvents cluster events; once full,
	// eventHead indexes the oldest.
	events    []Event
	eventHead int
	// prints holds each stored object's fingerprint by "kind/name" in
	// test binaries, and is nil otherwise.
	prints map[string]string
}

type storeWatcher struct {
	kind string // "" = all kinds
	ch   chan WatchEvent
}

// watchBuffer is a watcher's event buffer: room for the bursts a
// consumer coalesces between passes, so only a consumer stalled behind
// a burst overflows it. The first event that does not fit closes the
// watch, which costs that consumer one relist.
const watchBuffer = 512

// Object kinds.
const (
	KindPod           = "Pod"
	KindNode          = "Node"
	KindStatefulSet   = "StatefulSet"
	KindDeployment    = "Deployment"
	KindJob           = "Job"
	KindNetworkPolicy = "NetworkPolicy"
)

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{objects: make(map[string]map[string]any), owned: make(map[OwnerRef][]string)}
	if testing.Testing() {
		s.prints = make(map[string]string)
	}
	return s
}

// Put creates or replaces an object. The store takes ownership of obj:
// the caller must not touch it afterwards. New pods default to the
// Pending phase and get a fresh UID, mirroring API-server defaulting.
func (s *Store) Put(kind, name string, obj any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := obj.(*Pod); ok {
		if p.Status.Phase == "" {
			p.Status.Phase = PodPending
		}
		if p.UID == 0 {
			s.nextUID++
			p.UID = s.nextUID
		}
	}
	s.setLocked(kind, name, obj)
}

// setLocked stores obj under (kind, name), replacing any previous
// object, and publishes the change.
func (s *Store) setLocked(kind, name string, obj any) {
	m, ok := s.objects[kind]
	if !ok {
		m = make(map[string]any)
		s.objects[kind] = m
	}
	old, existed := m[name]
	s.track(kind, name, old, obj)
	m[name] = obj
	ev := WatchEvent{Type: WatchAdded, Kind: kind, Name: name, Object: obj}
	if existed {
		ev.Type, ev.Prev = WatchModified, old
	}
	if kind == KindPod {
		if existed {
			s.reownLocked(name, old.(*Pod).Owner, obj.(*Pod).Owner)
		} else {
			s.indexPodLocked(obj.(*Pod).Owner, name)
		}
	}
	s.notifyLocked(ev)
}

// Get returns the stored object, which the caller must not mutate.
func (s *Store) Get(kind, name string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[kind][name]
	return obj, ok
}

// Delete removes an object; it reports whether it existed.
func (s *Store) Delete(kind, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.objects[kind]
	old, ok := m[name]
	if !ok {
		return false
	}
	s.track(kind, name, old, nil)
	delete(m, name)
	if kind == KindPod {
		s.unindexPodLocked(old.(*Pod).Owner, name)
	}
	s.notifyLocked(WatchEvent{Type: WatchDeleted, Kind: kind, Name: name, Prev: old})
	return true
}

// List returns the stored objects of a kind whose name has the given
// prefix, name-sorted; the caller must not mutate them.
func (s *Store) List(kind, prefix string) []any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.objects[kind]))
	for name := range s.objects[kind] {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]any, 0, len(names))
	for _, name := range names {
		out = append(out, s.objects[kind][name])
	}
	return out
}

// StoreWatch is one subscription to the store's event stream. Delivery
// never blocks a writer: the first event that does not fit the
// watcher's buffer closes the channel instead, and the close is the gap
// signal — the consumer re-watches, then relists. See
// docs/watch-protocol.md (layer 2).
type StoreWatch struct {
	s *Store
	w *storeWatcher
}

// Events returns the subscription's delivery channel.
func (sw *StoreWatch) Events() <-chan WatchEvent { return sw.w.ch }

// Cancel releases the watcher and closes its channel. After the store
// has closed the watch on overflow it does nothing.
func (sw *StoreWatch) Cancel() {
	s := sw.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.watchers, sw.w); i >= 0 {
		s.watchers = slices.Delete(s.watchers, i, i+1)
		close(sw.w.ch)
	}
}

// Watch subscribes to changes of one kind ("" = all).
func (s *Store) Watch(kind string) *StoreWatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &storeWatcher{kind: kind, ch: make(chan WatchEvent, watchBuffer)}
	s.watchers = append(s.watchers, w)
	return &StoreWatch{s: s, w: w}
}

func (s *Store) notifyLocked(ev WatchEvent) {
	for i := 0; i < len(s.watchers); {
		w := s.watchers[i]
		if w.kind == "" || w.kind == ev.Kind {
			select {
			case w.ch <- ev:
			default:
				// Full buffer: close the watch rather than leave a gap
				// its consumer cannot see.
				close(w.ch)
				s.watchers = slices.Delete(s.watchers, i, i+1)
				continue
			}
		}
		i++
	}
}

// maxEvents bounds the recorded cluster events: every pod records two on
// the per-job path, so an unbounded list grows with the run.
const maxEvents = 4096

// RecordEvent records a cluster event (FailedScheduling, Killing, ...),
// overwriting the oldest once maxEvents are held.
func (s *Store) RecordEvent(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) < maxEvents {
		s.events = append(s.events, ev)
		return
	}
	s.events[s.eventHead] = ev
	s.eventHead = (s.eventHead + 1) % maxEvents
}

// recordedEvents returns a copy of the recorded events (the newest
// maxEvents), oldest first, optionally filtered by reason.
func (s *Store) recordedEvents(reason string) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Event, 0, len(s.events))
	for i := range s.events {
		ev := s.events[(s.eventHead+i)%len(s.events)]
		if reason == "" || ev.Reason == reason {
			out = append(out, ev)
		}
	}
	return out
}

// --- typed convenience accessors ---

// GetPod returns the stored pod.
func (s *Store) GetPod(name string) (*Pod, bool) {
	obj, ok := s.Get(KindPod, name)
	if !ok {
		return nil, false
	}
	return obj.(*Pod), true
}

// PutPod stores a pod.
func (s *Store) PutPod(p *Pod) { s.Put(KindPod, p.Name, p) }

// ListPods lists pods by name prefix.
func (s *Store) ListPods(prefix string) []*Pod {
	objs := s.List(KindPod, prefix)
	out := make([]*Pod, len(objs))
	for i, o := range objs {
		out[i] = o.(*Pod)
	}
	return out
}

// PodsOf returns the stored pods owned by (kind, name), name-sorted.
// It reads the owner index, so its cost is the owner's pod count, not
// the store's.
func (s *Store) PodsOf(kind, name string) []*Pod {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.owned[OwnerRef{Kind: kind, Name: name}]
	out := make([]*Pod, len(names))
	for i, n := range names {
		out[i] = s.objects[KindPod][n].(*Pod)
	}
	return out
}

// orphanedPods returns the names of pods whose controller owner object
// no longer exists: one existence check per owner in the index.
func (s *Store) orphanedPods() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for o, names := range s.owned {
		if !controllerKind(o.Kind) {
			continue // unowned pods are managed by their creator
		}
		if _, ok := s.objects[o.Kind][o.Name]; !ok {
			out = append(out, names...)
		}
	}
	return out
}

func (s *Store) indexPodLocked(o OwnerRef, name string) {
	names := s.owned[o]
	if i, found := slices.BinarySearch(names, name); !found {
		s.owned[o] = slices.Insert(names, i, name)
	}
}

func (s *Store) unindexPodLocked(o OwnerRef, name string) {
	names := s.owned[o]
	i, found := slices.BinarySearch(names, name)
	switch {
	case !found:
	case len(names) == 1:
		delete(s.owned, o)
	default:
		s.owned[o] = slices.Delete(names, i, i+1)
	}
}

// reownLocked moves a stored pod's index entry when its owner changed.
func (s *Store) reownLocked(name string, from, to OwnerRef) {
	if from != to {
		s.unindexPodLocked(from, name)
		s.indexPodLocked(to, name)
	}
}

// getNode returns the stored node.
func (s *Store) getNode(name string) (*Node, bool) {
	obj, ok := s.Get(KindNode, name)
	if !ok {
		return nil, false
	}
	return obj.(*Node), true
}

// PutNode stores a node.
func (s *Store) PutNode(n *Node) { s.Put(KindNode, n.Name, n) }

// ListNodes lists all nodes.
func (s *Store) ListNodes() []*Node {
	objs := s.List(KindNode, "")
	out := make([]*Node, len(objs))
	for i, o := range objs {
		out[i] = o.(*Node)
	}
	return out
}

// UpdatePod replaces the stored pod with a copy that fn has changed,
// under the store lock, and publishes it; it reports whether the pod
// existed. This is the compare-free variant of the Kubernetes
// update-conflict loop, adequate because our controllers partition
// ownership of status fields. The copy is shallow, so fn may assign
// fields, maps and slices but must not edit a map or slice in place:
// the previous object shares them.
func (s *Store) UpdatePod(name string, fn func(*Pod)) bool { return update(s, KindPod, name, fn) }

// UpdateNode is UpdatePod for a node.
func (s *Store) UpdateNode(name string, fn func(*Node)) bool { return update(s, KindNode, name, fn) }

// UpdateJob is UpdatePod for a Job.
func (s *Store) UpdateJob(name string, fn func(*Job)) bool { return update(s, KindJob, name, fn) }

func update[T any](s *Store, kind, name string, fn func(*T)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.objects[kind][name].(*T)
	if !ok {
		return false
	}
	next := *old
	fn(&next)
	s.setLocked(kind, name, &next)
	return true
}

// track is the mutation detector, after client-go's
// KUBE_CACHE_MUTATION_DETECTOR, and runs only in test binaries. As
// (kind, name) goes from old to obj (either may be nil), it panics if
// old no longer matches the fingerprint taken when it was stored, then
// fingerprints obj.
func (s *Store) track(kind, name string, old, obj any) {
	if s.prints == nil {
		return
	}
	key := kind + "/" + name
	if old != nil && string(fingerprint(nil, reflect.Indirect(reflect.ValueOf(old)))) != s.prints[key] {
		panic("kube: stored object " + key + " was mutated")
	}
	if obj == nil {
		delete(s.prints, key)
	} else {
		s.prints[key] = string(fingerprint(nil, reflect.Indirect(reflect.ValueOf(obj))))
	}
}

// fingerprint appends a rendering of v: scalars, struct fields in
// order, map entries in key order, and a pointer as its address. It
// does not use fmt, whose pooled printer makes allocation counts vary
// under the race detector: tests count the allocations of store writes.
func fingerprint(b []byte, v reflect.Value) []byte {
	switch {
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10)
	case v.CanUint():
		return strconv.AppendUint(b, v.Uint(), 10)
	}
	switch v.Kind() {
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Pointer:
		return strconv.AppendUint(b, uint64(v.Pointer()), 16)
	case reflect.Struct:
		b = append(b, '{')
		for i := range v.NumField() {
			b = append(fingerprint(b, v.Field(i)), ',')
		}
		return append(b, '}')
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
		b = append(b, '[')
		for _, k := range keys {
			b = append(fingerprint(append(fingerprint(b, k), ':'), v.MapIndex(k)), ',')
		}
		return append(b, ']')
	}
	panic("kube: no fingerprint for " + v.Type().String())
}

// checkMutations runs the mutation detector over every stored object.
func (s *Store) checkMutations() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for kind, m := range s.objects {
		for name, obj := range m {
			s.track(kind, name, obj, obj)
		}
	}
}
