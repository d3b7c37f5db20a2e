package chaos

import (
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/sim"
)

// EtcdInjector drives coordination-layer chaos against an etcd cluster:
// replica outages long enough to force snapshot-restore rejoins, and
// leader failovers that force every watch stream to re-attach. It is
// the etcd counterpart of Injector, used by the chaos soak
// (docs/watch-protocol.md describes the contract under attack).
type EtcdInjector struct {
	c *etcd.Cluster
	// Timeout bounds each convergence wait, measured on the cluster's
	// own clock (virtual under FakeClock, so chaos waits are exact and
	// auto-advance keeps them fast). Defaults to 10s.
	Timeout time.Duration

	clock sim.Clock

	mu        sync.Mutex
	outages   int64
	failovers int64
	restores  uint64
}

// NewEtcdInjector returns an injector bound to a cluster, pacing its
// convergence waits on the cluster's clock.
func NewEtcdInjector(c *etcd.Cluster) *EtcdInjector {
	clock := c.Clock()
	if clock == nil {
		clock = sim.NewRealClock()
	}
	return &EtcdInjector{c: c, Timeout: 10 * time.Second, clock: clock}
}

// Stats reports (outage cycles, forced failovers, snapshot restores
// observed during outage cycles).
func (in *EtcdInjector) Stats() (outages, failovers int64, restores uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.outages, in.failovers, in.restores
}

// OutageCycle cuts one non-leader replica off, runs churn while it is
// isolated, then heals it and waits for it to converge with the leader.
// When churn writes enough to compact the leader's log past the victim,
// the rejoin goes through an InstallSnapshot; the return value reports
// the victim index and whether such a snapshot restore was observed.
func (in *EtcdInjector) OutageCycle(churn func()) (victim int, restored bool) {
	leader := in.c.Leader()
	if leader < 0 {
		return -1, false
	}
	victim = (leader + 1) % in.c.Replicas()
	before := in.c.SnapshotRestores()
	in.c.Isolate(victim, true)
	churn()
	in.c.Isolate(victim, false)
	deadline := in.clock.Now().Add(in.Timeout)
	for !in.converged(victim) && in.clock.Now().Before(deadline) {
		in.clock.Sleep(2 * time.Millisecond)
	}
	delta := in.c.SnapshotRestores() - before
	in.mu.Lock()
	in.outages++
	in.restores += delta
	in.mu.Unlock()
	return victim, delta > 0
}

// converged reports whether the victim's replica matches a live
// leader's state again.
func (in *EtcdInjector) converged(victim int) bool {
	l := in.c.Leader()
	return l >= 0 && l != victim && in.c.StateEqual(victim, l)
}

// ForceLeader bounces leadership until target leads, so that watch
// streams (which attach to the leader) must resume against it. Each
// bounce isolates the current leader, runs stale — a write that keeps
// the cut replica's log behind so it cannot immediately reclaim the
// term — and heals it. It reports whether target took leadership within
// the timeout.
func (in *EtcdInjector) ForceLeader(target int, stale func()) bool {
	deadline := in.clock.Now().Add(in.Timeout)
	for {
		cur := in.c.Leader()
		switch {
		case cur == target:
			return true
		case in.clock.Now().After(deadline):
			return false
		case cur < 0:
			in.clock.Sleep(2 * time.Millisecond)
			continue
		}
		in.c.Isolate(cur, true)
		stale() // commits on the majority side, staling cur's log
		// Evaluate the election while cur is still cut off: Leader()
		// ignores isolated replicas, so a healed node's stale
		// leadership claim cannot be misread as the outcome here.
		for in.c.Leader() < 0 && in.clock.Now().Before(deadline) {
			in.clock.Sleep(2 * time.Millisecond)
		}
		in.c.Isolate(cur, false)
		// The healed replica still claims its old term until the real
		// leader's first contact demotes it; wait that claim out so the
		// next evaluation (and the caller) read the true leader.
		for in.c.Leader() == cur && in.clock.Now().Before(deadline) {
			in.clock.Sleep(2 * time.Millisecond)
		}
		in.mu.Lock()
		in.failovers++
		in.mu.Unlock()
	}
}
