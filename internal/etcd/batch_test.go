package etcd

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitBatchesConcurrentProposals pins the tentpole property:
// K concurrent proposals are packed into fewer Raft entries than
// commands, every command still applies exactly once, and revisions
// stay per-command.
func TestGroupCommitBatchesConcurrentProposals(t *testing.T) {
	c := newTestCluster(t, Options{})
	const writers, perWriter = 16, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("batch/w%d/k%d", w, i)
				if _, err := c.Put(key, []byte("v"), 0); err != nil {
					t.Errorf("Put %s: %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Commands < writers*perWriter {
		t.Fatalf("Commands = %d, want >= %d", st.Commands, writers*perWriter)
	}
	if st.Entries >= st.Commands {
		t.Fatalf("no batching: %d entries for %d commands", st.Entries, st.Commands)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
	// Every key exists exactly once with a distinct revision.
	kvs, err := c.List("batch/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != writers*perWriter {
		t.Fatalf("keys = %d, want %d", len(kvs), writers*perWriter)
	}
	seen := make(map[uint64]string, len(kvs))
	for _, kv := range kvs {
		if prev, dup := seen[kv.ModRevision]; dup {
			t.Fatalf("revision %d assigned to both %s and %s", kv.ModRevision, prev, kv.Key)
		}
		seen[kv.ModRevision] = kv.Key
	}
	// Followers learn the final commit index on the next append, so give
	// convergence a bounded grace window before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for !c.StateEqual(0, 1) || !c.StateEqual(1, 2) {
		if time.Now().After(deadline) {
			t.Fatal("replicas diverged under batched load")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchedProposalsSurviveLeaderFailover exercises the re-proposal
// path: proposals issued while the leader is isolated are re-queued by
// their waiters on the leadership broadcast, under the same request ID,
// and land exactly once after failover.
func TestBatchedProposalsSurviveLeaderFailover(t *testing.T) {
	c := newTestCluster(t, Options{})
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Put(fmt.Sprintf("fo/k%d", i), []byte("v"), 0); err != nil {
				t.Errorf("Put during failover: %v", err)
			}
		}(i)
	}
	c.Isolate(li, true)
	wg.Wait()
	c.Isolate(li, false)
	kvs, err := c.List("fo/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 8 {
		t.Fatalf("keys = %d, want 8", len(kvs))
	}
}

// TestWaitLeaderHoldsNoPollingWaiter pins the event-driven satellite: a
// WaitLeader call against a cluster that already has a leader returns
// without arming any clock timer (measured indirectly — it must return
// immediately even when invoked at high frequency).
func TestWaitLeaderHoldsNoPollingWaiter(t *testing.T) {
	c := newTestCluster(t, Options{})
	if _, err := c.WaitLeader(time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := c.WaitLeader(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("1000 WaitLeader calls with a stable leader took %v; the wait is not event-driven", el)
	}
}

// TestPutAllocBudgetOnIdleCluster pins the allocation budget of a
// single-key Put on an idle 3-node cluster so per-proposal costs cannot
// silently regress. Heartbeats and append responses travel by value and
// allocate nothing, so the count is the proposal's own.
func TestPutAllocBudgetOnIdleCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is load-sensitive")
	}
	c := newTestCluster(t, Options{})
	if _, err := c.Put("warm", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Put("warm", []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 8 allocs/op: the waiter and its signal channel, the one
	// encoded entry every replica shares (the stored value aliases it),
	// a key string per replica and the leader's apply barrier. A result
	// channel, whose error-holding buffer was a second allocation,
	// measured 9; per-call timers, *Message sends, per-follower entry
	// copies, a barrier per replica and a value copy per replica
	// measured 35; the seed's per-entry gob encoding measured ~800.
	if allocs > 13 {
		t.Fatalf("Put allocations = %.0f, budget 13", allocs)
	}
}

// dropTransport discards every message.
type dropTransport struct{}

func (dropTransport) Send(Message) {}

// TestCommitCheckAllocatesNothing pins the leader's commit check, which
// runs on every append response: it commits the largest index a quorum
// holds, for clusters of 1 to 5, and sorts the match indexes on the
// stack, allocating nothing.
func TestCommitCheckAllocatesNothing(t *testing.T) {
	for size := 1; size <= 5; size++ {
		peers := make([]int, size)
		for i := range peers {
			peers[i] = i
		}
		n := newNode(Config{ID: 0, Peers: peers}, dropTransport{}, rand.New(rand.NewSource(1)), nil)
		n.role, n.currentTerm = leader, 1
		for i := 1; i <= 10*size; i++ {
			n.log = append(n.log, entry{Index: uint64(i), Term: 1})
		}
		// Peer i holds 10*(i+1), so a quorum of size/2+1 holds
		// 10*(size-size/2).
		for _, p := range peers {
			n.matchIndex[p] = uint64(10 * (p + 1))
		}
		n.mu.Lock()
		n.maybeCommitLocked()
		allocs := testing.AllocsPerRun(100, n.maybeCommitLocked)
		n.mu.Unlock()
		if want := uint64(10 * (size - size/2)); n.commitIndex != want {
			t.Fatalf("%d nodes: commitIndex = %d, want %d", size, n.commitIndex, want)
		}
		if allocs != 0 {
			t.Fatalf("%d nodes: the commit check allocates %.0f times a call, want 0", size, allocs)
		}
	}
}
