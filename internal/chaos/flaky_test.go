package chaos

import (
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// TestFlakyNodeCrashLoopReschedulesElsewhere covers the flaky-node fault
// class the package godoc advertises: one node crash-loops repeatedly
// (each crash superseding the pending restore) while a deployment's pods
// must land and stay on healthy nodes, and the scheduler's incremental
// dirty-set view stays consistent with the store throughout.
func TestFlakyNodeCrashLoopReschedulesElsewhere(t *testing.T) {
	c := testCluster(t)
	c.Store().Put(kube.KindDeployment, "svc", &kube.Deployment{
		Name: "svc", Replicas: 2,
		Template: kube.PodSpec{Demand: sched.Resources{MilliCPU: 100, MemoryMB: 64, GPUs: 1}, Runtime: "block"},
	})
	waitRunning := func(want int, exclude string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			running := 0
			for _, p := range c.Store().ListPods("") {
				if p.Status.Phase == kube.PodRunning && p.Status.Node != exclude {
					running++
				}
			}
			if running >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d pods running off %q", running, want, exclude)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitRunning(2, "")

	flaky := nodeName(0)
	in := NewInjector(c, sim.NewRNG(9))
	// Long mean recovery: the node stays down across the whole check, so
	// "pods reschedule elsewhere" is asserted while the fault is live.
	in.NodeRecovery = 30 * time.Second

	// Crash-loop: each iteration crashes the flaky node again before the
	// previous jittered restore can fire, bumping the crash generation so
	// stale timers must not restore it mid-loop.
	for i := 0; i < 5; i++ {
		in.CrashNode(flaky)
		time.Sleep(10 * time.Millisecond)
	}
	// Both replicas end up running on healthy nodes while the flaky node
	// is still down.
	waitRunning(2, flaky)

	in.Stop()
	crashes, _ := in.Stats()
	if crashes != 5 {
		t.Fatalf("crash-loop recorded %d crashes, want 5", crashes)
	}

	// After Stop every node (including the flaky one) is restored
	// exactly once — the generation bookkeeping must not let the five
	// superseded timers fight over it.
	deadline := time.Now().Add(3 * time.Second)
	for {
		ready := 0
		for _, n := range c.Store().ListNodes() {
			if n.Ready {
				ready++
			}
		}
		if ready == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 nodes ready after crash-loop stop", ready)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The scheduler's incremental view must still reconcile cleanly:
	// subsequent resync audits prove the dirty-set consistent with the
	// store (no phantom capacity from the crash-looped node).
	before := c.SchedStats()
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := c.SchedStats()
		if st.AuditsClean > before.AuditsClean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no clean scheduler audit after crash-loop: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashLoopNotDoubleRestored pins the restore-bookkeeping fix
// directly: a node crashed twice before its first restore fires comes
// back exactly once, and only after the second crash's recovery delay.
func TestCrashLoopNotDoubleRestored(t *testing.T) {
	c := testCluster(t)
	in := NewInjector(c, sim.NewRNG(4))
	in.NodeRecovery = 60 * time.Millisecond
	defer in.Stop()

	name := nodeName(1)
	in.CrashNode(name)
	time.Sleep(5 * time.Millisecond)
	in.CrashNode(name) // second crash before the first restore fires

	isDown := func() bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.downNodes[name]
	}
	// The node must eventually be restored (once), and from the moment
	// the injector's bookkeeping says it is up, it must never flap back
	// down (a stale first-generation timer restoring early would race a
	// still-pending one and flap the bookkeeping).
	deadline := time.Now().Add(5 * time.Second)
	for isDown() {
		if time.Now().After(deadline) {
			t.Fatal("crash-looped node never restored")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		if isDown() {
			t.Fatal("node flapped back down after restore: stale timer raced the bookkeeping")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if crashes, _ := in.Stats(); crashes != 2 {
		t.Fatalf("crashes = %d, want 2", crashes)
	}
}

// TestMongoInjectorCyclesFaults drives the mongo failover loop against
// a live DB with a writer, pinning that (a) failovers fire and (b)
// committed writes survive every failover window.
func TestMongoInjectorCyclesFaults(t *testing.T) {
	db := mongo.NewDB()
	in := NewMongoInjector(db, nil, sim.NewRNG(12))
	in.FailoverMTBF = 10 * time.Millisecond
	in.FailoverDuration = 3 * time.Millisecond
	in.Start()

	c := db.C("jobs")
	inserted := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := in.Stats()
		if st.Failovers >= 3 && inserted >= 50 {
			break
		}
		if _, err := c.Insert(mongo.Doc{"n": inserted}); err == nil {
			inserted++
		}
		time.Sleep(500 * time.Microsecond)
	}
	st := in.Stats()
	if st.Failovers < 3 {
		t.Fatalf("failover loop did not fire: %+v", st)
	}
	if inserted < 50 {
		t.Fatalf("only %d inserts landed under chaos", inserted)
	}
	in.Stop()
	// Chaos stopped: the primary serves, every successful insert is
	// still there.
	if got := c.Count(mongo.Filter{}); got != inserted {
		t.Fatalf("primary has %d docs, want %d", got, inserted)
	}
}
