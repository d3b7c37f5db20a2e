package etcd

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

func newTestCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.TickInterval == 0 {
		opts.TickInterval = 2 * time.Millisecond
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestElectsSingleLeader(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	leaders := 0
	for _, n := range c.nodes {
		if n.isLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
}

func TestPutGet(t *testing.T) {
	c := newTestCluster(t, Options{})
	rev, err := c.Put("jobs/j1/status", []byte("PENDING"), 0)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if rev == 0 {
		t.Fatal("Put returned zero revision")
	}
	kv, ok, err := c.Get("jobs/j1/status")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(kv.Value) != "PENDING" {
		t.Fatalf("value = %q", kv.Value)
	}
	if kv.CreateRevision != rev || kv.ModRevision != rev {
		t.Fatalf("revisions = %d/%d, want %d", kv.CreateRevision, kv.ModRevision, rev)
	}
}

func TestRevisionsMonotonic(t *testing.T) {
	c := newTestCluster(t, Options{})
	var last uint64
	for i := 0; i < 20; i++ {
		rev, err := c.Put(fmt.Sprintf("k%d", i%3), []byte("v"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rev <= last {
			t.Fatalf("revision %d not greater than %d", rev, last)
		}
		last = rev
	}
}

func TestDeleteAndPrefix(t *testing.T) {
	c := newTestCluster(t, Options{})
	for i := 0; i < 5; i++ {
		if _, err := c.Put(fmt.Sprintf("jobs/j1/learner%d", i), []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Put("jobs/j2/learner0", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Delete("jobs/j1/learner0")
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	ok, err = c.DeletePrefix("jobs/j1/")
	if err != nil || !ok {
		t.Fatalf("DeletePrefix: ok=%v err=%v", ok, err)
	}
	kvs, err := c.List("jobs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Key != "jobs/j2/learner0" {
		t.Fatalf("List after prefix delete = %v", kvs)
	}
}

func TestWatchKey(t *testing.T) {
	c := newTestCluster(t, Options{})
	ws, err := c.Watch("status", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	if _, err := c.Put("status", []byte("RUNNING"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("other", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ws.Events():
		if ev.Type != EventPut || string(ev.KV.Value) != "RUNNING" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no watch event")
	}
	select {
	case ev := <-ws.Events():
		t.Fatalf("unexpected event for other key: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestWatchPrefixStreamsAll(t *testing.T) {
	c := newTestCluster(t, Options{})
	ws, err := c.Watch("jobs/j1/", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fmt.Sprintf("jobs/j1/learner%d", i), []byte("READY"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete("jobs/j1/learner1"); err != nil {
		t.Fatal(err)
	}
	var puts, dels int
	timeout := time.After(2 * time.Second)
	for puts+dels < 4 {
		select {
		case ev := <-ws.Events():
			switch ev.Type {
			case EventPut:
				puts++
			case EventDelete:
				dels++
			}
		case <-timeout:
			t.Fatalf("got %d puts %d dels, want 3/1", puts, dels)
		}
	}
	if puts != 3 || dels != 1 {
		t.Fatalf("puts=%d dels=%d", puts, dels)
	}
}

// TestWatchClosesWhenLeaderIsolated: a stream is trusted only while its
// replica leads. Isolating the leader closes the stream; a re-watch
// registers on the new leader and sees the next write.
func TestWatchClosesWhenLeaderIsolated(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	ws, err := c.Watch("jobs/", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	rev, err := c.Put("jobs/j/l0", []byte("S"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := nextEvent(t, ws); !ok || ev.Revision != rev {
		t.Fatalf("first event %+v (open=%v), want revision %d", ev, ok, rev)
	}

	old := c.Leader()
	c.Isolate(old, true)
	defer c.Isolate(old, false)
	if ev, ok := nextEvent(t, ws); ok {
		t.Fatalf("event %+v after the leader was isolated, want a close", ev)
	}

	ws2, err := c.Watch("jobs/", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Cancel()
	if c.states[old] == ws2.st {
		t.Fatal("re-watch registered on the isolated replica")
	}
	rev, err = c.Put("jobs/j/l1", []byte("S"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := nextEvent(t, ws2); !ok || ev.Revision != rev || ev.KV.Key != "jobs/j/l1" {
		t.Fatalf("re-watch got %+v (open=%v), want PUT jobs/j/l1 @%d", ev, ok, rev)
	}
}

// nextEvent receives from ws, failing the test if nothing (not even a
// close) arrives within 5s.
func nextEvent(t *testing.T, ws *WatchStream) (Event, bool) {
	t.Helper()
	select {
	case ev, ok := <-ws.Events():
		return ev, ok
	case <-time.After(5 * time.Second):
		t.Fatal("no event or close within 5s")
		return Event{}, false
	}
}

// TestWatchOverflowClosesStream: a consumer that falls a full buffer
// behind gets every buffered event, in revision order, then a close —
// never a silent gap.
func TestWatchOverflowClosesStream(t *testing.T) {
	c := newTestCluster(t, Options{})
	ws, err := c.Watch("k", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	var revs []uint64
	for i := 0; i <= watchBuffer; i++ {
		rev, err := c.Put("k", []byte(fmt.Sprint(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, rev)
	}
	var got []uint64
	for ev := range ws.Events() {
		got = append(got, ev.Revision)
	}
	if len(got) != watchBuffer {
		t.Fatalf("delivered %d events before the close, want %d", len(got), watchBuffer)
	}
	for i, rev := range got {
		if rev != revs[i] {
			t.Fatalf("event %d at revision %d, want %d", i, rev, revs[i])
		}
	}
}

// TestWatchFromRevisionIsRejected: a stream cannot resume from a
// revision, so a non-zero fromRevision errors and registers nothing.
func TestWatchFromRevisionIsRejected(t *testing.T) {
	c := newTestCluster(t, Options{})
	rev, err := c.Put("k", []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ws, err := c.Watch("k", false, rev); err == nil {
		ws.Cancel()
		t.Fatal("Watch from a revision succeeded")
	}
	for i, st := range c.states {
		if n := st.watcherCount(); n != 0 {
			t.Fatalf("replica %d holds %d watchers after the rejected watch", i, n)
		}
	}
}

// TestWatchesAddNoTimer: a stream is a registration, not a goroutine
// with a health ticker, so K open watches leave the clock's waiter count
// where it was; Cancel and cluster stop close them.
func TestWatchesAddNoTimer(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	c := newTestCluster(t, Options{Clock: fc})
	base := fc.WaiterCount()
	var streams []*WatchStream
	for i := 0; i < 8; i++ {
		ws, err := c.Watch(fmt.Sprintf("jobs/j%d/", i), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, ws)
	}
	time.Sleep(20 * time.Millisecond) // let any per-stream goroutine arm its timer
	if n := fc.WaiterCount(); n != base {
		t.Fatalf("8 open watches hold %d clock waiters, want %d", n, base)
	}
	streams[0].Cancel()
	if _, ok := nextEvent(t, streams[0]); ok {
		t.Fatal("cancelled stream delivered an event")
	}
	c.Stop()
	for _, ws := range streams[1:] {
		if _, ok := nextEvent(t, ws); ok {
			t.Fatal("stream delivered an event after cluster stop")
		}
	}
}

// TestPutWithLeaseIsRejected: leases are not supported, so a Put that
// names one fails and writes nothing — no revision, no watch event.
func TestPutWithLeaseIsRejected(t *testing.T) {
	c := newTestCluster(t, Options{})
	rev, err := c.Put("k", []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := c.Watch("k", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	if _, err := c.Put("k", []byte("leased"), 7); err == nil {
		t.Fatal("Put with a lease succeeded")
	}
	next, err := c.Put("k", []byte("c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != rev+1 {
		t.Fatalf("revision after the rejected put = %d, want %d", next, rev+1)
	}
	select {
	case ev := <-ws.Events():
		if string(ev.KV.Value) != "c" || ev.Revision != next {
			t.Fatalf("first event = %s %q @%d, want PUT \"c\" @%d", ev.Type, ev.KV.Value, ev.Revision, next)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no watch event for the accepted put")
	}
	if kv, _, _ := c.Get("k"); string(kv.Value) != "c" {
		t.Fatalf("value = %q, want \"c\"", kv.Value)
	}
}

func TestLeaderFailoverContinuesService(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	if _, err := c.Put("before", []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	old := c.Leader()
	c.Isolate(old, true)
	// A new leader must emerge among the remaining two.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l := c.Leader(); l >= 0 && l != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no new leader after isolating old one")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Put("after", []byte("2"), 0); err != nil {
		t.Fatalf("Put after failover: %v", err)
	}
	kv, ok, err := c.Get("before")
	if err != nil || !ok || string(kv.Value) != "1" {
		t.Fatalf("pre-failover data lost: %v %v %v", kv, ok, err)
	}
	// Heal: old leader rejoins as follower and catches up.
	c.Isolate(old, false)
	time.Sleep(200 * time.Millisecond)
	if !c.StateEqual(0, 1) || !c.StateEqual(1, 2) {
		t.Fatal("replicas diverged after heal")
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3, ProposalTimeout: 300 * time.Millisecond})
	leader := c.Leader()
	// Cut the leader from both followers: it must not commit new writes.
	for i := 0; i < 3; i++ {
		if i != leader {
			c.cutLink(leader, i, true)
		}
	}
	time.Sleep(100 * time.Millisecond)
	// Writes go to the majority side's new leader; reads of a fresh key
	// prove the minority didn't serve the write.
	if _, err := c.Put("majority", []byte("yes"), 0); err != nil {
		t.Fatalf("majority write failed: %v", err)
	}
	// The isolated old leader must not have the key.
	if kv, ok := c.states[leader].get("majority"); ok {
		t.Fatalf("minority applied uncommitted write: %+v", kv)
	}
	for i := 0; i < 3; i++ {
		if i != leader {
			c.cutLink(leader, i, false)
		}
	}
}

func TestReplicasConvergeUnderLoad(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	for i := 0; i < 200; i++ {
		if _, err := c.Put(fmt.Sprintf("k%03d", i%50), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Allow followers to drain.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.StateEqual(0, 1) && c.StateEqual(1, 2) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replicas did not converge")
}

func TestSnapshotCompactionKeepsState(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3, SnapshotThreshold: 64})
	for i := 0; i < 300; i++ {
		if _, err := c.Put(fmt.Sprintf("key%d", i%10), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	li := c.Leader()
	c.nodes[li].mu.Lock()
	compacted := c.nodes[li].snapIndex > 0
	c.nodes[li].mu.Unlock()
	if !compacted {
		t.Fatal("log never compacted despite small threshold")
	}
	kv, ok, err := c.Get("key9")
	if err != nil || !ok {
		t.Fatalf("Get after compaction: %v %v", ok, err)
	}
	if string(kv.Value) != "v299" {
		t.Fatalf("value = %q, want v299", kv.Value)
	}
}

func TestLaggingFollowerCatchesUpViaSnapshot(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3, SnapshotThreshold: 32})
	// Isolate a follower, write enough to force compaction past its log.
	leader := c.Leader()
	follower := (leader + 1) % 3
	c.Isolate(follower, true)
	for i := 0; i < 200; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Isolate(follower, false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if kv, ok := c.states[follower].get("k199"); ok && string(kv.Value) == "v" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("follower did not catch up via snapshot")
}

func TestSingleNodeCluster(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 1})
	if _, err := c.Put("solo", []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("solo"); !ok {
		t.Fatal("single-node put lost")
	}
}

func TestStoppedClusterErrors(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 1})
	c.Stop()
	if _, err := c.Put("x", nil, 0); err == nil {
		t.Fatal("Put on stopped cluster succeeded")
	}
}

// Property: the store behaves as a map — the last written value per key
// wins, for arbitrary operation interleavings.
func TestStoreLinearizesToMapProperty(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	f := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		model := make(map[string]string)
		prefix := fmt.Sprintf("prop%d/", time.Now().UnixNano())
		for _, op := range ops {
			k := prefix + fmt.Sprintf("k%d", op.Key%4)
			if op.Del {
				if _, err := c.Delete(k); err != nil {
					return false
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", op.Val)
				if _, err := c.Put(k, []byte(v), 0); err != nil {
					return false
				}
				model[k] = v
			}
		}
		kvs, err := c.List(prefix)
		if err != nil {
			return false
		}
		if len(kvs) != len(model) {
			return false
		}
		for _, kv := range kvs {
			if model[kv.Key] != string(kv.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
