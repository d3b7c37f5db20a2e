package etcd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// waiting returns how many proposals wait for an answer.
func (c *Cluster) waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// waitFor polls cond in real time for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestProposalsShareOneTimer: proposals hold no timer of their own. On a
// FakeClock (the Raft ticks use the wall clock) an idle cluster holds no
// clock waiter once its writes are answered, and 64 concurrent Puts hold
// at most one — the batch loop's.
func TestProposalsShareOneTimer(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	c := newTestCluster(t, Options{Clock: fc})
	if _, err := c.Put("warm", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the idle cluster to release its timer", func() bool { return fc.WaiterCount() == 0 })

	var most int
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			most = max(most, fc.WaiterCount())
			select {
			case <-done:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v"), 0); err != nil {
				t.Errorf("Put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	<-sampled
	if most > 1 {
		t.Fatalf("64 concurrent Puts held %d clock waiters, want at most 1", most)
	}
	waitFor(t, "the idle cluster to release its timer", func() bool { return fc.WaiterCount() == 0 })
}

// TestNoQuorumTimesOutEachProposalOnce isolates 2 of 3 replicas — the
// two followers, so the leader appends entries that never commit, or
// the leader and one follower, so no leader is left — and pins that
// each of K concurrent Puts returns ErrTimeout once, no sooner than
// ProposalTimeout and no later than one tick after it. Time is a
// FakeClock's, so the bound is exact; the Raft ticks use the wall clock.
// After a heal the cluster serves again.
func TestNoQuorumTimesOutEachProposalOnce(t *testing.T) {
	const k = 16
	for _, keepLeader := range []bool{true, false} {
		t.Run(fmt.Sprintf("keepLeader=%v", keepLeader), func(t *testing.T) {
			fc := sim.NewFakeClock(time.Unix(0, 0))
			opts := Options{Clock: fc, ProposalTimeout: 500 * time.Millisecond}
			c := newTestCluster(t, opts)
			tick := c.opts.TickInterval
			li := c.Leader()
			cut := []int{(li + 1) % 3, (li + 2) % 3}
			if !keepLeader {
				cut[1] = li
			}
			for _, id := range cut {
				c.Isolate(id, true)
			}

			start := fc.Now()
			errs := make(chan error, 2*k)
			for i := 0; i < k; i++ {
				go func(i int) {
					_, err := c.Put(fmt.Sprintf("nq/k%d", i), []byte("v"), 0)
					errs <- err
				}(i)
			}
			waitFor(t, "every Put to wait", func() bool { return c.waiting() == k })
			// Step virtual time to a tick short of the deadline, letting
			// the loop re-arm its timer after each firing.
			for fc.Now().Before(start.Add(opts.ProposalTimeout - tick)) {
				waitFor(t, "the loop's timer", func() bool { return fc.WaiterCount() == 1 })
				fc.Advance(tick)
			}
			if n := len(errs); n != 0 {
				t.Fatalf("%d Puts returned before ProposalTimeout", n)
			}
			fc.Advance(2 * tick) // past the deadline, within one tick of it
			for i := 0; i < k; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrTimeout) {
						t.Fatalf("Put returned %v, want ErrTimeout", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d Puts returned within a tick of ProposalTimeout", i, k)
				}
			}
			if n := c.waiting(); n != 0 {
				t.Fatalf("%d proposals still wait after timing out", n)
			}
			waitFor(t, "the loop to disarm its timer", func() bool { return fc.WaiterCount() == 0 })
			if n := len(errs); n != 0 {
				t.Fatalf("%d extra answers", n)
			}

			for _, id := range cut {
				c.Isolate(id, false)
			}
			go func() {
				_, err := c.Put("nq/after", []byte("v"), 0)
				errs <- err
			}()
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("Put after the heal: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Put after the heal did not return")
			}
		})
	}
}

// TestExactlyOnceUnderFailoverSchedule drives writers of unique keys
// through a seeded schedule of isolations and cut links, then heals:
// every Put returns once, each acknowledged key is present with its
// value, no key applied twice (a second apply of a put would move
// ModRevision past CreateRevision), and the replicas converge. The
// schedule lasts under a second, so with a 3 s ProposalTimeout every
// Put must succeed: a command whose entry was lost in a failover and
// never re-proposed would time out instead.
func TestExactlyOnceUnderFailoverSchedule(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	c := newTestCluster(t, Options{ProposalTimeout: 3 * time.Second})

	const writers = 8
	var stop sync.WaitGroup
	quit := make(chan struct{})
	acked := make([][]string, writers)
	issued := make(map[string]bool)
	var issuedMu sync.Mutex
	for w := 0; w < writers; w++ {
		stop.Add(1)
		go func(w int) {
			defer stop.Done()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				key := fmt.Sprintf("fs/w%d/k%d", w, i)
				issuedMu.Lock()
				issued[key] = true
				issuedMu.Unlock()
				if _, err := c.Put(key, []byte(key), 0); err != nil {
					t.Errorf("seed %d: Put %s: %v", seed, key, err)
					return
				}
				acked[w] = append(acked[w], key)
			}
		}(w)
	}

	isolated := map[int]bool{}
	cuts := map[[2]int]bool{}
	heal := func() {
		for id := range isolated {
			c.Isolate(id, false)
		}
		for l := range cuts {
			c.cutLink(l[0], l[1], false)
		}
		clear(isolated)
		clear(cuts)
	}
	for step := 0; step < 16; step++ {
		switch rng.Intn(5) {
		case 0:
			id := rng.Intn(3)
			isolated[id] = true
			c.Isolate(id, true)
		case 1:
			a := rng.Intn(3)
			b := (a + 1 + rng.Intn(2)) % 3
			cuts[pairKey(a, b)] = true
			c.cutLink(a, b, true)
		case 2:
			// Partition the leader by its links: unlike Isolate, routing
			// still reaches it until a successor wins a higher term, so
			// the entries it takes meanwhile are lost and must be
			// re-proposed.
			if li := c.Leader(); li >= 0 {
				for _, p := range []int{(li + 1) % 3, (li + 2) % 3} {
					cuts[pairKey(li, p)] = true
					c.cutLink(li, p, true)
				}
			}
		case 3, 4:
			heal()
		}
		time.Sleep(time.Duration(10+rng.Intn(50)) * time.Millisecond)
	}
	heal()
	time.Sleep(50 * time.Millisecond)
	close(quit)
	returned := make(chan struct{})
	go func() { stop.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(15 * time.Second):
		t.Fatalf("seed %d: a Put never returned", seed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !c.StateEqual(0, 1) || !c.StateEqual(1, 2) {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: replicas did not converge", seed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	kvs, err := c.List("fs/")
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	present := make(map[string]KV, len(kvs))
	for _, kv := range kvs {
		if !issued[kv.Key] || string(kv.Value) != kv.Key {
			t.Fatalf("seed %d: stray key %s = %q", seed, kv.Key, kv.Value)
		}
		if kv.CreateRevision != kv.ModRevision {
			t.Fatalf("seed %d: %s applied twice (created @%d, modified @%d)", seed, kv.Key, kv.CreateRevision, kv.ModRevision)
		}
		present[kv.Key] = kv
	}
	n := 0
	for _, keys := range acked {
		for _, key := range keys {
			if _, ok := present[key]; !ok {
				t.Fatalf("seed %d: acknowledged key %s is missing", seed, key)
			}
			n++
		}
	}
	if n == 0 || len(kvs) != n {
		t.Fatalf("seed %d: %d keys present for %d acknowledged puts", seed, len(kvs), n)
	}
	t.Logf("seed %d: %d acknowledged puts", seed, n)
}
