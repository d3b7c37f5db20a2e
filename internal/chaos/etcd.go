package chaos

import (
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/sim"
)

// EtcdInjector drives coordination-layer chaos against an etcd cluster:
// replica outages long enough to force snapshot-restore rejoins. It is
// the etcd counterpart of Injector, used by the chaos soak
// (docs/watch-protocol.md describes the contract under attack).
type EtcdInjector struct {
	c *etcd.Cluster
	// Timeout bounds each convergence wait, measured on the cluster's
	// own clock (virtual under FakeClock, so chaos waits are exact and
	// auto-advance keeps them fast). Defaults to 10s.
	Timeout time.Duration

	clock sim.Clock

	mu       sync.Mutex
	outages  int64
	restores uint64
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

// Stats reports (outage cycles, snapshot restores observed during
// outage cycles).
func (in *EtcdInjector) Stats() (outages int64, restores uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.outages, in.restores
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
