package etcd

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
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

// TestWatchFromRevisionReplays proves a watcher can resume from an old
// revision and receive the missed events from the retained history.
func TestWatchFromRevisionReplays(t *testing.T) {
	c := newTestCluster(t, Options{})
	var first uint64
	for i := 0; i < 5; i++ {
		rev, err := c.Put(fmt.Sprintf("jobs/j/l%d", i), []byte("S"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first = rev
		}
	}
	ws, err := c.Watch("jobs/j/", true, first)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	for i := 0; i < 5; i++ {
		select {
		case ev := <-ws.Events():
			want := fmt.Sprintf("jobs/j/l%d", i)
			if ev.Type != EventPut || ev.KV.Key != want {
				t.Fatalf("replayed event %d = %+v, want PUT %s", i, ev, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("missing replayed event %d", i)
		}
	}
}

// TestWatchCompactedHistoryResyncs proves the overflow→resync contract:
// resuming past the retained history window yields an EventResync marker
// followed by the current state, not a silent gap.
func TestWatchCompactedHistoryResyncs(t *testing.T) {
	c := newTestCluster(t, Options{})
	const puts = 2100 // past 2*watchHistory, a multiple of the 5 keys
	for i := 0; i < puts; i++ {
		if _, err := c.Put(fmt.Sprintf("k%02d", i%5), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	ws, err := c.Watch("k", true, 1) // revision 1 is long compacted
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	select {
	case ev := <-ws.Events():
		if ev.Type != EventResync {
			t.Fatalf("first event = %v, want RESYNC", ev.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no resync event")
	}
	seen := make(map[string]string)
	for len(seen) < 5 {
		select {
		case ev := <-ws.Events():
			if ev.Type != EventPut {
				t.Fatalf("post-resync event = %+v", ev)
			}
			seen[ev.KV.Key] = string(ev.KV.Value)
		case <-time.After(2 * time.Second):
			t.Fatalf("resync delivered only %d/5 keys", len(seen))
		}
	}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v := seen[k]; v != fmt.Sprintf("v%d", puts-5+i) {
			t.Fatalf("resync state %s = %q", k, v)
		}
	}
}

// TestWatchResumesAcrossLeaderFailover is the dependability heart of the
// event-driven control plane: a prefix watch keeps delivering every
// event, in revision order without duplicates, while the replica it was
// attached to is isolated and leadership moves.
func TestWatchResumesAcrossLeaderFailover(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3})
	ws, err := c.Watch("jobs/", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()

	var wantRevs []uint64
	put := func(i int) {
		rev, err := c.Put(fmt.Sprintf("jobs/j/l%d", i), []byte("S"), 0)
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		wantRevs = append(wantRevs, rev)
	}
	for i := 0; i < 3; i++ {
		put(i)
	}
	// Kill the replica the watch is attached to (the leader at
	// registration time) and keep writing through the new leader.
	old := c.Leader()
	c.Isolate(old, true)
	for i := 3; i < 10; i++ {
		put(i)
	}

	var got []uint64
	timeout := time.After(10 * time.Second)
	for len(got) < len(wantRevs) {
		select {
		case ev, ok := <-ws.Events():
			if !ok {
				t.Fatalf("stream closed after %d/%d events", len(got), len(wantRevs))
			}
			if ev.Type == EventResync {
				t.Fatal("failover forced a resync; history replay expected")
			}
			got = append(got, ev.Revision)
		case <-timeout:
			t.Fatalf("delivered %d/%d events across failover", len(got), len(wantRevs))
		}
	}
	for i, rev := range got {
		if rev != wantRevs[i] {
			t.Fatalf("event %d revision = %d, want %d (got %v want %v)", i, rev, wantRevs[i], got, wantRevs)
		}
	}
	c.Isolate(old, false)
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

// TestSnapshotRestorePreservesWatchHistory pins the durable-history half
// of the watch contract at the state-machine level: a replica rebuilt
// from a snapshot adopts the snapshot's compacted event log, so a
// watcher resuming from an old revision gets the full replay backlog,
// not a resync.
func TestSnapshotRestorePreservesWatchHistory(t *testing.T) {
	src := newStoreState()
	var req uint64
	for i := 0; i < 10; i++ {
		req++
		src.apply(&command{Op: opPut, Key: fmt.Sprintf("jobs/j/l%d", i), Value: []byte("S"), ReqID: req})
	}
	dst := newStoreState()
	dst.restore(src.snapshot())
	if got := dst.restoreCount(); got != 1 {
		t.Fatalf("restoreCount = %d, want 1", got)
	}
	if dst.revision() != src.revision() {
		t.Fatalf("restored revision = %d, want %d", dst.revision(), src.revision())
	}
	_, backlog, cancel := dst.addWatcherFrom("jobs/j/", true, 1, 64)
	defer cancel()
	if len(backlog) != 10 {
		t.Fatalf("replay backlog = %d events, want 10", len(backlog))
	}
	for i, ev := range backlog {
		if ev.Type != EventPut || ev.Revision != uint64(i+1) {
			t.Fatalf("backlog[%d] = %+v, want PUT at revision %d", i, ev, i+1)
		}
	}
}

// TestWatchReplaysAgainstSnapshotRestoredLeader is the acceptance pin
// for durable watch history: a replica that rejoined via InstallSnapshot
// is forced to become leader (the replica watches attach to), and a
// watcher resuming from the beginning of history replays every event in
// revision order with no EventResync.
func TestWatchReplaysAgainstSnapshotRestoredLeader(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3, SnapshotThreshold: 32})
	leader := c.Leader()
	follower := (leader + 1) % 3
	c.Isolate(follower, true)
	var wantRevs []uint64
	for i := 0; i < 120; i++ {
		rev, err := c.Put(fmt.Sprintf("jobs/j/l%d", i%10), []byte("S"), 0)
		if err != nil {
			t.Fatal(err)
		}
		wantRevs = append(wantRevs, rev)
	}
	c.Isolate(follower, false)
	// The healed follower is too far behind the compacted log, so it
	// must catch up via a snapshot — which now carries the event log.
	deadline := time.Now().Add(10 * time.Second)
	for c.states[follower].restoreCount() < 1 ||
		c.states[follower].revision() < wantRevs[len(wantRevs)-1] {
		if time.Now().After(deadline) {
			t.Fatalf("follower never restored from snapshot (restores=%d rev=%d)",
				c.states[follower].restoreCount(), c.states[follower].revision())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.SnapshotRestores() < 1 {
		t.Fatal("SnapshotRestores did not count the install")
	}
	// Bounce leadership until the restored replica leads. The write made
	// while the old leader is cut keeps its log stale so it cannot
	// immediately win the term back.
	deadline = time.Now().Add(15 * time.Second)
	for c.Leader() != follower {
		if time.Now().After(deadline) {
			t.Fatal("restored replica never became leader")
		}
		cur := c.Leader()
		if cur < 0 || cur == follower {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c.Isolate(cur, true)
		if _, err := c.Put("bounce", []byte("x"), 0); err != nil {
			t.Fatalf("bounce write: %v", err)
		}
		c.Isolate(cur, false)
	}
	ws, err := c.Watch("jobs/j/", true, wantRevs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	var got []uint64
	timeout := time.After(10 * time.Second)
	for len(got) < len(wantRevs) {
		select {
		case ev, ok := <-ws.Events():
			if !ok {
				t.Fatalf("stream closed after %d/%d events", len(got), len(wantRevs))
			}
			if ev.Type == EventResync {
				t.Fatal("resume against restored replica forced a resync; persisted-log replay expected")
			}
			got = append(got, ev.Revision)
		case <-timeout:
			t.Fatalf("replayed %d/%d events", len(got), len(wantRevs))
		}
	}
	for i, rev := range got {
		if rev != wantRevs[i] {
			t.Fatalf("event %d revision = %d, want %d", i, rev, wantRevs[i])
		}
	}
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
