package kube

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// cloneObject deep-copies any stored object type.
func cloneObject(obj any) any {
	switch o := obj.(type) {
	case *Pod:
		return o.Clone()
	case *Node:
		return o.Clone()
	case *StatefulSet:
		return o.Clone()
	case *Deployment:
		return o.Clone()
	case *Job:
		return o.Clone()
	case *NetworkPolicy:
		c := *o
		return &c
	default:
		return obj
	}
}

// Store is the API-server state: typed object maps with watch streams.
// All reads return deep copies; all writes replace whole objects —
// the same interaction model controllers have with a real API server.
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
	return &Store{objects: make(map[string]map[string]any), owned: make(map[OwnerRef][]string)}
}

// Put creates or replaces an object. New pods default to the Pending
// phase and get a fresh UID, mirroring API-server defaulting.
func (s *Store) Put(kind, name string, obj any) {
	s.mu.Lock()
	if p, ok := obj.(*Pod); ok {
		if p.Status.Phase == "" {
			p.Status.Phase = PodPending
		}
		if p.UID == 0 {
			s.nextUID++
			p.UID = s.nextUID
		}
	}
	m, ok := s.objects[kind]
	if !ok {
		m = make(map[string]any)
		s.objects[kind] = m
	}
	old, existed := m[name]
	m[name] = cloneObject(obj)
	if kind == KindPod {
		if existed {
			s.reownLocked(name, old.(*Pod).Owner, obj.(*Pod).Owner)
		} else {
			s.indexPodLocked(obj.(*Pod).Owner, name)
		}
	}
	evType := WatchAdded
	var prev any
	if existed {
		evType = WatchModified
		prev = cloneObject(old)
	}
	s.notifyLocked(WatchEvent{Type: evType, Kind: kind, Name: name, Object: cloneObject(obj), Prev: prev})
	s.mu.Unlock()
}

// Get returns a deep copy of an object.
func (s *Store) Get(kind, name string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[kind][name]
	if !ok {
		return nil, false
	}
	return cloneObject(obj), true
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
	delete(m, name)
	if kind == KindPod {
		s.unindexPodLocked(old.(*Pod).Owner, name)
	}
	s.notifyLocked(WatchEvent{Type: WatchDeleted, Kind: kind, Name: name, Prev: cloneObject(old)})
	return true
}

// List returns deep copies of all objects of a kind whose name has the
// given prefix, name-sorted.
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
		out = append(out, cloneObject(s.objects[kind][name]))
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

// GetPod returns a pod copy.
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

// PodsOf returns copies of the pods owned by (kind, name), name-sorted.
// It reads the owner index, so its cost is the owner's pod count, not
// the store's.
func (s *Store) PodsOf(kind, name string) []*Pod {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.owned[OwnerRef{Kind: kind, Name: name}]
	out := make([]*Pod, len(names))
	for i, n := range names {
		out[i] = s.objects[KindPod][n].(*Pod).Clone()
	}
	return out
}

// orphanedPods returns the names of pods whose controller owner object
// no longer exists: one existence check per owner in the index, and no
// pod is cloned.
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

// getNode returns a node copy.
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

// UpdatePod applies fn to the stored pod under the store lock and
// republishes it; it reports whether the pod existed. This is the
// compare-free variant of the Kubernetes update-conflict loop, adequate
// because our controllers partition ownership of status fields.
func (s *Store) UpdatePod(name string, fn func(*Pod)) bool {
	s.mu.Lock()
	obj, ok := s.objects[KindPod][name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	p := obj.(*Pod)
	prev := p.Clone()
	fn(p)
	s.reownLocked(name, prev.Owner, p.Owner)
	s.notifyLocked(WatchEvent{Type: WatchModified, Kind: KindPod, Name: name, Object: p.Clone(), Prev: prev})
	s.mu.Unlock()
	return true
}

// UpdateNode applies fn to a stored node.
func (s *Store) UpdateNode(name string, fn func(*Node)) bool {
	s.mu.Lock()
	obj, ok := s.objects[KindNode][name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	n := obj.(*Node)
	prev := n.Clone()
	fn(n)
	s.notifyLocked(WatchEvent{Type: WatchModified, Kind: KindNode, Name: name, Object: n.Clone(), Prev: prev})
	s.mu.Unlock()
	return true
}

// UpdateJob applies fn to a stored Job.
func (s *Store) UpdateJob(name string, fn func(*Job)) bool {
	s.mu.Lock()
	obj, ok := s.objects[KindJob][name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	j := obj.(*Job)
	prev := j.Clone()
	fn(j)
	s.notifyLocked(WatchEvent{Type: WatchModified, Kind: KindJob, Name: name, Object: j.Clone(), Prev: prev})
	s.mu.Unlock()
	return true
}
