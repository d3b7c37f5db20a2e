package chaos

import (
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

func testCluster(t *testing.T) *kube.Cluster {
	t.Helper()
	c := kube.NewCluster(kube.Config{
		HeartbeatInterval: 3 * time.Millisecond,
		NodeGracePeriod:   20 * time.Millisecond,
	})
	t.Cleanup(c.Stop)
	c.RegisterRuntime("block", func(ctx *kube.PodContext) int {
		<-ctx.Stop
		return 137
	})
	for i := 0; i < 4; i++ {
		c.AddNode(nodeName(i), "K80", sched.Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 4})
	}
	return c
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

// TestEtcdInjectorOutageForcesSnapshotRestoreAndFailover exercises the
// coordination-layer injector: an outage with enough churn makes the
// victim rejoin via snapshot. What a watch does across such a failover
// — it closes, and its consumer re-watches — is pinned by etcd's own
// TestWatchClosesWhenLeaderIsolated.
func TestEtcdInjectorOutageForcesSnapshotRestoreAndFailover(t *testing.T) {
	c, err := etcd.NewCluster(etcd.Options{
		Replicas: 3, Seed: 11, SnapshotThreshold: 16, TickInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	in := NewEtcdInjector(c)
	write := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				if _, err := c.Put(fmt.Sprintf("k%03d", i), []byte("v"), 0); err != nil {
					t.Errorf("churn put: %v", err)
				}
			}
		}
	}
	victim, restored := in.OutageCycle(write(80))
	if victim < 0 {
		t.Fatal("no leader to pick a victim around")
	}
	if !restored {
		t.Fatal("outage churn past the snapshot threshold did not force a restore")
	}
	outages, restores := in.Stats()
	if outages != 1 || restores < 1 {
		t.Fatalf("stats = %d outages / %d restores", outages, restores)
	}
}

func TestNodeCrashLoopInjectsAndRecovers(t *testing.T) {
	c := testCluster(t)
	in := NewInjector(c, sim.NewRNG(3))
	in.NodeMTBF = 80 * time.Millisecond // aggressive for test speed
	in.NodeRecovery = 10 * time.Millisecond
	in.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if crashes, _ := in.Stats(); crashes >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("injector produced no node crashes")
		}
		time.Sleep(time.Millisecond)
	}
	in.Stop()
	// After Stop, every node must be restored (lease renewals resume).
	deadline = time.Now().Add(3 * time.Second)
	for {
		ready := 0
		for _, n := range c.Store().ListNodes() {
			if n.Ready {
				ready++
			}
		}
		if ready == 4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 nodes ready after injector stop", ready)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPodKillLoopTargetsRunningPods(t *testing.T) {
	c := testCluster(t)
	// A deployment keeps one pod alive; the injector keeps killing it.
	c.Store().Put(kube.KindDeployment, "victim", &kube.Deployment{
		Name: "victim", Replicas: 1,
		Template: kube.PodSpec{Demand: sched.Resources{MilliCPU: 100, MemoryMB: 64}, Runtime: "block"},
	})
	in := NewInjector(c, sim.NewRNG(5))
	in.PodKillMTBF = 15 * time.Millisecond
	in.Start()
	defer in.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, kills := in.Stats(); kills >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("injector killed no pods")
		}
		time.Sleep(time.Millisecond)
	}
	// The deployment keeps resurrecting its pod despite the chaos.
	deadline = time.Now().Add(3 * time.Second)
	for {
		p, ok := c.Store().GetPod("victim-0")
		if ok && p.Status.Phase == kube.PodRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pod never recovered under kill loop")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInjectorIdempotentStartStop(t *testing.T) {
	c := testCluster(t)
	in := NewInjector(c, sim.NewRNG(1))
	in.NodeMTBF = 50 * time.Millisecond
	in.Start()
	in.Start() // second start is a no-op
	in.Stop()
	in.Stop() // second stop is a no-op
}

func TestInjectorWithoutRatesDoesNothing(t *testing.T) {
	c := testCluster(t)
	in := NewInjector(c, sim.NewRNG(1))
	in.Start()
	time.Sleep(30 * time.Millisecond)
	crashes, kills := in.Stats()
	if crashes != 0 || kills != 0 {
		t.Fatalf("injector acted without configured rates: %d/%d", crashes, kills)
	}
	in.Stop()
}
