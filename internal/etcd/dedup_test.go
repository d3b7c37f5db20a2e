package etcd

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// dedupWindow reports one replica's dedup table size and ack floor.
func (s *storeState) dedupWindow() (size int, floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.appliedReq), s.floor
}

// lastReqID returns the most recently minted request ID.
func (c *Cluster) lastReqID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reqSeq
}

// putEverywhere writes key=value and waits until every replica has
// applied it, so the entry's ack floor has reached them all. It returns
// the write's revision.
func putEverywhere(t *testing.T, c *Cluster, key, value string) uint64 {
	t.Helper()
	rev, err := c.Put(key, []byte(value), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < len(c.states); {
		if c.states[i].revision() >= rev {
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never applied revision %d", i, rev)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rev
}

// TestDuplicateBelowAckFloorAppliesNowhere pins the dedup window's
// safety: once an acknowledged request is below the ack floor, a late
// duplicate of it (a re-proposal that commits after the floor passed
// it) applies on no replica — including one rebuilt from a snapshot
// taken after the floor moved — although no replica still holds its ID.
func TestDuplicateBelowAckFloorAppliesNowhere(t *testing.T) {
	c := newTestCluster(t, Options{Replicas: 3, SnapshotThreshold: 32})
	putEverywhere(t, c, "k", "v1")
	acked := c.lastReqID()
	putEverywhere(t, c, "k", "v2") // this entry's floor passes acked

	// Rebuild a follower from a snapshot taken after the floor moved.
	follower := (c.Leader() + 1) % 3
	restores := c.states[follower].restoreCount()
	c.Isolate(follower, true)
	for i := 0; i < 100; i++ {
		if _, err := c.Put(fmt.Sprintf("pad/%d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Isolate(follower, false)
	healed := putEverywhere(t, c, "healed", "v")
	if c.states[follower].restoreCount() == restores {
		t.Fatal("follower caught up without a snapshot restore")
	}

	// The duplicate commits in an entry of its own, floor unset, proposed
	// to the leader directly (proposeEntry belongs to the batch loop).
	li := c.Leader()
	idx, _, err := c.nodes[li].Propose(encodeEntry(&command{Op: opPut, Key: "k", Value: []byte("v1"), ReqID: acked}))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !c.nodes[li].appliedAtLeast(idx); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the duplicate's entry %d never applied on the leader", idx)
		}
	}
	after := putEverywhere(t, c, "after", "v")
	if after != healed+1 {
		t.Fatalf("revision %d after the duplicate and one put, want %d", after, healed+1)
	}
	for i, st := range c.states {
		if kv, _ := st.get("k"); string(kv.Value) != "v2" {
			t.Fatalf("replica %d: k = %q, want v2 (the duplicate applied)", i, kv.Value)
		}
		if rev := st.revision(); rev != after {
			t.Fatalf("replica %d: revision %d, want %d", i, rev, after)
		}
		if size, floor := st.dedupWindow(); floor <= acked || size > 1 {
			t.Fatalf("replica %d: dedup window %d entries, floor %d; want <=1 entry, floor > %d", i, size, floor, acked)
		}
	}

	// The same at the state-machine level, with nothing applied after
	// the restore: the snapshot itself carries the floor and window.
	src := newStoreState()
	src.apply(&command{Op: opPut, Key: "k", Value: []byte("v1"), ReqID: 1})
	src.raiseFloor(2)
	src.apply(&command{Op: opPut, Key: "k", Value: []byte("v2"), ReqID: 2})
	dst := newStoreState()
	dst.restore(src.snapshot())
	dst.apply(&command{Op: opPut, Key: "k", Value: []byte("v1"), ReqID: 1})
	dst.apply(&command{Op: opPut, Key: "k", Value: []byte("v2"), ReqID: 2})
	if kv, _ := dst.get("k"); string(kv.Value) != "v2" || dst.revision() != 2 {
		t.Fatalf("restored replica applied a duplicate: k = %q at revision %d, want v2 at 2", kv.Value, dst.revision())
	}
}

// TestDedupWindowHoldsOnlyInFlight pins the dedup table's size by
// counts: after hundreds of concurrent proposals, one more proposal —
// the only one in flight when its entry was flushed — leaves each
// replica's table holding just that request, not every ID ever applied.
func TestDedupWindowHoldsOnlyInFlight(t *testing.T) {
	c := newTestCluster(t, Options{})
	const writers, perWriter = 16, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Put(fmt.Sprintf("w%d/k%d", w, i), []byte("v"), 0); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	putEverywhere(t, c, "last", "v")
	last := c.lastReqID()
	for i, st := range c.states {
		if size, floor := st.dedupWindow(); size > 1 || floor != last {
			t.Fatalf("replica %d: dedup window %d entries, floor %d after %d requests; want 1 entry, floor %d",
				i, size, floor, last, last)
		}
	}
}
