package etcd

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// histModel is the oracle for the watch history: an independent model
// of the store's event semantics that keeps every event it ever
// predicts, with no retention bound.
type histModel struct {
	rev    uint64
	kv     map[string]bool
	events []Event
}

func (m *histModel) emit(typ EventType, key string, value []byte) {
	m.events = append(m.events, Event{Type: typ, KV: KV{Key: key, Value: value}, Revision: m.rev})
}

func (m *histModel) put(key string, value []byte) {
	m.kv[key] = true
	m.rev++
	m.emit(EventPut, key, value)
}

func (m *histModel) del(key string, prefix bool) {
	var victims []string
	for k := range m.kv {
		if k == key || (prefix && strings.HasPrefix(k, key)) {
			victims = append(victims, k)
		}
	}
	if len(victims) == 0 {
		return
	}
	sort.Strings(victims)
	m.rev++
	for _, k := range victims {
		delete(m.kv, k)
		m.emit(EventDelete, k, nil)
	}
}

// sameEvents compares what the history promises a watcher: type, key,
// revision and, for puts, the value.
func sameEvents(got, want []Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.KV.Key != w.KV.Key || g.Revision != w.Revision || !bytes.Equal(g.KV.Value, w.KV.Value) {
			return false
		}
	}
	return true
}

// histHarness applies each command to a storeState and its oracle.
type histHarness struct {
	t   *testing.T
	st  *storeState
	m   *histModel
	req uint64
}

func newHistHarness(t *testing.T) *histHarness {
	return &histHarness{t: t, st: newStoreState(), m: &histModel{kv: make(map[string]bool)}}
}

func (h *histHarness) apply(c *command) {
	h.req++
	c.ReqID = h.req
	h.st.apply(c)
	switch c.Op {
	case opPut:
		h.m.put(c.Key, c.Value)
	case opDelete:
		h.m.del(c.Key, c.Prefix)
	}
	checkHistoryShape(h.t, h.st, h.m)
}

// TestWatchHistoryModel drives random Put, Delete and DeletePrefix
// sequences through a storeState and an
// unbounded oracle. The retained history must always be a suffix of the
// oracle that starts a revision and, once watchHistory events exist,
// holds at least that many; every fromRev in [1, rev] must replay the
// oracle's filter or resync below the retained floor; and a replica
// restored from a snapshot must replay identically.
func TestWatchHistoryModel(t *testing.T) {
	prefixes := []string{"jobs/a/", "jobs/b/", "jobs/c/"}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newHistHarness(t)
			randKey := func() string { return fmt.Sprintf("%s%d", prefixes[rng.Intn(len(prefixes))], rng.Intn(16)) }
			for i := 1; i <= 4000; i++ {
				switch r := rng.Intn(100); {
				case r < 67:
					h.apply(&command{Op: opPut, Key: randKey(), Value: []byte(fmt.Sprint(i))})
				case r < 76:
					h.apply(&command{Op: opDelete, Key: randKey()})
				default:
					h.apply(&command{Op: opDelete, Key: prefixes[rng.Intn(len(prefixes))], Prefix: true})
				}
			}
			checkReplay(t, h.st, h.m, prefixes[rng.Intn(len(prefixes))])
		})
	}
	// A multi-key delete straddling the first trim's cut: the cut must
	// move back to the delete's first event.
	t.Run("straddle", func(t *testing.T) {
		h := newHistHarness(t)
		for i := 0; i < watchHistory-4; i++ {
			h.apply(&command{Op: opPut, Key: fmt.Sprintf("jobs/a/%d", i%8), Value: []byte("v")})
		}
		h.apply(&command{Op: opDelete, Key: "jobs/a/", Prefix: true}) // 8 events at one revision
		for i := 0; len(h.m.events) < 2*watchHistory; i++ {
			h.apply(&command{Op: opPut, Key: fmt.Sprintf("jobs/b/%d", i%8), Value: []byte("v")})
		}
		checkReplay(t, h.st, h.m, "jobs/")
	})
}

// checkHistoryShape pins retention: the history is the oracle's suffix,
// starts a revision, and holds between watchHistory and 2*watchHistory
// events once watchHistory exist.
func checkHistoryShape(t *testing.T, st *storeState, m *histModel) {
	t.Helper()
	st.mu.Lock()
	hist := st.hist
	rev := st.rev
	st.mu.Unlock()
	if rev != m.rev {
		t.Fatalf("store revision %d, oracle %d", rev, m.rev)
	}
	n := len(hist)
	if n > len(m.events) || !sameEvents(hist, m.events[len(m.events)-n:]) {
		t.Fatalf("history (%d events) is not a suffix of the oracle (%d events)", n, len(m.events))
	}
	if len(m.events) >= watchHistory && n < watchHistory {
		t.Fatalf("retained %d events of %d, want at least %d", n, len(m.events), watchHistory)
	}
	if n >= 2*watchHistory {
		t.Fatalf("retained %d events, want fewer than %d", n, 2*watchHistory)
	}
	if first := len(m.events) - n; n > 0 && first > 0 && m.events[first-1].Revision == hist[0].Revision {
		t.Fatalf("history starts mid-revision %d", hist[0].Revision)
	}
}

// checkReplay sweeps every fromRev in [1, rev] for a prefix watcher on
// st and on a replica restored from st's snapshot.
func checkReplay(t *testing.T, st *storeState, m *histModel, prefix string) {
	t.Helper()
	restored := newStoreState()
	restored.restore(st.snapshot())
	if !reflect.DeepEqual(restored.hist, st.hist) {
		t.Fatalf("restored history differs from the snapshot source's")
	}
	var want []Event
	for _, ev := range m.events {
		if strings.HasPrefix(ev.KV.Key, prefix) {
			want = append(want, ev)
		}
	}
	floor := st.hist[0].Revision
	for from := uint64(1); from <= m.rev; from++ {
		_, got, cancel := st.addWatcherFrom(prefix, true, from, 1)
		cancel()
		_, gotRestored, cancel := restored.addWatcherFrom(prefix, true, from, 1)
		cancel()
		if !sameEvents(gotRestored, got) {
			t.Fatalf("fromRev %d: restored replica replays %d events, source %d", from, len(gotRestored), len(got))
		}
		if from < floor {
			if len(got) == 0 || got[0].Type != EventResync {
				t.Fatalf("fromRev %d below floor %d: want a resync, got %d events", from, floor, len(got))
			}
			continue
		}
		i := sort.Search(len(want), func(i int) bool { return want[i].Revision >= from })
		if !sameEvents(got, want[i:]) {
			t.Fatalf("fromRev %d (floor %d): replayed %d events, oracle filter has %d", from, floor, len(got), len(want)-i)
		}
	}
}
