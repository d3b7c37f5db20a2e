package etcd

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// linearStore is the oracle for storeState's key index and watcher
// maps: the store as it was before them, a map scanned whole and sorted
// on every range call, and a watcher list tested key by key on every
// write. It keeps no dedup table, snapshot or lock.
type linearStore struct {
	kv       map[string]KV
	rev      uint64
	watchers []*watcher
}

func (o *linearStore) put(key string, value []byte) result {
	o.rev++
	old, existed := o.kv[key]
	kv := KV{Key: key, Value: append([]byte(nil), value...), ModRevision: o.rev}
	if existed {
		kv.CreateRevision = old.CreateRevision
	} else {
		kv.CreateRevision = o.rev
	}
	o.kv[key] = kv
	o.notify(Event{Type: EventPut, KV: kv, Revision: o.rev})
	return result{rev: o.rev, ok: true}
}

func (o *linearStore) delete(key string, prefix bool) result {
	var victims []string
	if prefix {
		for k := range o.kv {
			if strings.HasPrefix(k, key) {
				victims = append(victims, k)
			}
		}
		sort.Strings(victims)
	} else if _, ok := o.kv[key]; ok {
		victims = []string{key}
	}
	if len(victims) == 0 {
		return result{rev: o.rev, ok: false}
	}
	o.rev++
	for _, k := range victims {
		delete(o.kv, k)
		o.notify(Event{Type: EventDelete, KV: KV{Key: k, ModRevision: o.rev}, Revision: o.rev})
	}
	return result{rev: o.rev, ok: true}
}

func (o *linearStore) notify(ev Event) {
	for _, w := range o.watchers {
		if w.closed || !linearMatches(w, ev.KV.Key) {
			continue
		}
		select {
		case w.ch <- ev:
		default:
			o.remove(w)
		}
	}
}

func linearMatches(w *watcher, key string) bool {
	if w.prefix {
		return strings.HasPrefix(key, w.key)
	}
	return key == w.key
}

func (o *linearStore) list(prefix string) []KV {
	var out []KV
	for k, v := range o.kv {
		if strings.HasPrefix(k, prefix) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (o *linearStore) add(key string, prefix bool, buf int) *watcher {
	w := &watcher{key: key, prefix: prefix, ch: make(chan Event, buf)}
	o.watchers = append(o.watchers, w)
	return w
}

func (o *linearStore) remove(w *watcher) {
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// watcherCount returns how many watchers are registered on s.
func (s *storeState) watcherCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, lists := range []map[string]*watcher{s.exact, s.prefixes} {
		for _, head := range lists {
			for w := head; w != nil; w = w.next {
				n++
			}
		}
	}
	return n
}

// checkIndex checks s's indexes against its own kv map and the open
// oracle watchers: keys holds exactly kv's keys, strictly ascending;
// every listed watcher is open and filed under its own key and kind,
// no list is empty, and prefixLens counts the prefix watchers of each
// length and no other.
func checkIndex(t *testing.T, s *storeState, open int, step int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.keys) != len(s.kv) {
		t.Fatalf("step %d: %d indexed keys for %d KVs", step, len(s.keys), len(s.kv))
	}
	for i, k := range s.keys {
		if _, ok := s.kv[k]; !ok || (i > 0 && s.keys[i-1] >= k) {
			t.Fatalf("step %d: key index %q is not kv's keys in ascending order", step, s.keys)
		}
	}
	lens := map[int]int{}
	n := 0
	for prefix, lists := range map[bool]map[string]*watcher{false: s.exact, true: s.prefixes} {
		for key, head := range lists {
			if head == nil {
				t.Fatalf("step %d: empty watcher list filed under %q", step, key)
			}
			for w := head; w != nil; w = w.next {
				if w.closed || w.key != key || w.prefix != prefix {
					t.Fatalf("step %d: watcher %+v misfiled under %q (prefix=%v)", step, *w, key, prefix)
				}
				if prefix {
					lens[len(key)]++
				}
				n++
			}
		}
	}
	if !reflect.DeepEqual(lens, s.prefixLens) {
		t.Fatalf("step %d: prefixLens = %v, the prefix lists hold %v", step, s.prefixLens, lens)
	}
	if n != open {
		t.Fatalf("step %d: %d watchers registered, the oracle holds %d open", step, n, open)
	}
}

// drained is what a watcher's channel held, and whether it closed.
type drained struct {
	events []Event
	closed bool
}

func drain(w *watcher) drained {
	var d drained
	for {
		select {
		case ev, ok := <-w.ch:
			if !ok {
				d.closed = true
				return d
			}
			d.events = append(d.events, ev)
		default:
			return d
		}
	}
}

// storeOps reads an op sequence from fuzz bytes; reads past the end
// yield zero.
type storeOps struct {
	b []byte
	i int
}

func (r *storeOps) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// key draws a '/'-separated key of one to three segments, sometimes
// with a trailing '/'.
func (r *storeOps) key() string {
	segs := []string{"a", "b", "ab", "c"}
	n := 1 + r.next()%3
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(segs[r.next()%len(segs)])
	}
	if r.next()%4 == 0 {
		sb.WriteByte('/')
	}
	return sb.String()
}

// prefix draws a key cut at any length, "" and mid-segment cuts
// included.
func (r *storeOps) prefix() string {
	k := r.key()
	return k[:r.next()%(len(k)+1)]
}

// runStoreOps applies the op sequence in b to a storeState and to the
// linear oracle and fails at the first difference: a List result, a
// write's result, the events of each write (an all-keys watcher's
// stream, which gives a prefix delete's victims in order), or a
// watcher's stream, overflow closes included.
func runStoreOps(t *testing.T, b []byte) {
	s := newStoreState()
	o := &linearStore{kv: make(map[string]KV)}
	// Large enough for any one op's events: the key universe is 168 keys.
	allS, allO := s.addWatcher("", true, 256), o.add("", true, 256)
	type pair struct{ s, o *watcher }
	var ws []pair
	r := &storeOps{b: b}
	compare := func(step int, what string, sw, ow *watcher) {
		if got, want := drain(sw), drain(ow); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %s delivered %+v, the oracle %+v", step, what, got, want)
		}
	}
	for step := 0; r.i < len(r.b); step++ {
		switch r.next() % 8 {
		case 0, 1:
			k, v := r.key(), []byte{byte(r.next())}
			if got, want := s.apply(&command{Op: opPut, Key: k, Value: v}), o.put(k, v); got != want {
				t.Fatalf("step %d: Put %q = %+v, the oracle %+v", step, k, got, want)
			}
		case 2:
			k := r.key()
			if got, want := s.apply(&command{Op: opDelete, Key: k}), o.delete(k, false); got != want {
				t.Fatalf("step %d: Delete %q = %+v, the oracle %+v", step, k, got, want)
			}
		case 3:
			p := r.prefix()
			if got, want := s.apply(&command{Op: opDelete, Key: p, Prefix: true}), o.delete(p, true); got != want {
				t.Fatalf("step %d: DeletePrefix %q = %+v, the oracle %+v", step, p, got, want)
			}
		case 4:
			p := r.prefix()
			if got, want := s.list(p), o.list(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: List %q = %+v, the oracle %+v", step, p, got, want)
			}
		case 5:
			prefix := r.next()%2 == 0
			k := r.key()
			if prefix {
				k = r.prefix()
			}
			buf := 1 + r.next()%4
			ws = append(ws, pair{s.addWatcher(k, prefix, buf), o.add(k, prefix, buf)})
		case 6:
			if len(ws) > 0 {
				p := ws[r.next()%len(ws)]
				s.removeWatcher(p.s)
				o.remove(p.o)
			}
		case 7:
			if r.next()%4 == 0 {
				s.restore(s.snapshot())
			} else if len(ws) > 0 {
				p := ws[r.next()%len(ws)]
				compare(step, "watch "+p.s.key, p.s, p.o)
			}
		}
		compare(step, "the all-keys watch", allS, allO)
		open := 1
		for _, p := range ws {
			if !p.o.closed {
				open++
			}
		}
		checkIndex(t, s, open, step)
	}
	for _, p := range ws {
		compare(len(r.b), "watch "+p.s.key, p.s, p.o)
	}
	if got, want := s.list(""), o.list(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("final List \"\" = %+v, the oracle %+v", got, want)
	}
}

// TestStoreMatchesLinearScan is the key index's and the watcher maps'
// model test: random sequences of Put, Delete, DeletePrefix, List,
// Watch, Cancel, drain and snapshot restore behave exactly as the
// linear-scan oracle does.
func TestStoreMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 500; seq++ {
		b := make([]byte, 600)
		rng.Read(b)
		runStoreOps(t, b)
	}
}

// FuzzStoreMatchesLinearScan explores the same identity over arbitrary
// op sequences.
func FuzzStoreMatchesLinearScan(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 7, 5, 0, 0, 1, 2, 1, 0, 0, 1, 0, 0, 4, 3, 0, 2, 1, 1, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 1, 2, 1, 3, 0, 2, 0, 0, 2, 2, 1, 0, 3, 0, 0, 1, 3, 7, 0, 1, 3, 2, 3, 0, 0, 6, 0, 7, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runStoreOps(t, ops)
	})
}

// allocBytesPerRun reports f's mean allocated bytes per call, measured
// the way testing.AllocsPerRun measures allocation counts.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestStoreOpsAllocateOnlyResults pins the indexes' per-call cost: once
// the key index and the watcher maps have grown, a write allocates
// nothing — the store keeps the committed value without a copy — and a
// List only its result. Registering a watch
// allocates only its watcher and its channel, whose header and buffer
// are two allocations as an Event holds pointers; with the stream that
// wraps them, a watch allocates at most 2 KB.
func TestStoreOpsAllocateOnlyResults(t *testing.T) {
	s := newStoreState()
	for _, k := range []string{"jobs/j1/control", "jobs/j1/learners/0/status", "jobs/j2/control"} {
		s.apply(&command{Op: opPut, Key: k, Value: []byte("v")})
	}
	w := s.addWatcher("jobs/j1/", true, watchBuffer)
	discard := func() {
		for len(w.ch) > 0 {
			<-w.ch
		}
	}
	v := []byte("v")
	watch := func() {
		ws := &WatchStream{st: s, w: s.addWatcher("jobs/j2/", true, watchBuffer)}
		ws.Cancel()
	}
	for _, c := range []struct {
		what string
		want float64
		op   func()
	}{
		{"Put of an existing key", 0, func() { s.apply(&command{Op: opPut, Key: "jobs/j1/control", Value: v}); discard() }},
		{"List", 1, func() { _ = s.list("jobs/j1/") }},
		{"prefix delete and re-create", 0, func() {
			s.apply(&command{Op: opDelete, Key: "jobs/j1/", Prefix: true})
			s.apply(&command{Op: opPut, Key: "jobs/j1/control", Value: v})
			s.apply(&command{Op: opPut, Key: "jobs/j1/learners/0/status", Value: v})
			discard()
		}},
		{"Watch and Cancel", 3, watch},
	} {
		if got := testing.AllocsPerRun(100, c.op); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.what, got, c.want)
		}
	}
	if got := allocBytesPerRun(1000, watch); got > 2048 {
		t.Errorf("Watch and Cancel: %d B per watch, want <= 2048", got)
	}
	var keys []string
	for _, kv := range s.list("jobs/") {
		keys = append(keys, kv.Key)
	}
	if want := []string{"jobs/j1/control", "jobs/j1/learners/0/status", "jobs/j2/control"}; !slices.Equal(keys, want) {
		t.Fatalf("keys after the runs = %v, want %v", keys, want)
	}
}
