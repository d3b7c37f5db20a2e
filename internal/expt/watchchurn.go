package expt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ffdl/ffdl/internal/chaos"
	"github.com/ffdl/ffdl/internal/etcd"
)

// The watch-churn experiment: the repo's own measurement of the durable
// watch layer. It drives chaos-injected failover against the etcd
// coordination store while a fleet of per-job watchers — one prefix
// watch per job, the shape the Guardians and the status machinery use —
// crash and resume by revision, exactly like an API replica resuming
// its status cursor after a restart. The headline metric is
// resyncs-per-restore: the compacted event log rides inside Raft
// snapshots, so a watcher resuming against a freshly snapshot-restored
// replica replays its gap and the metric is 0; every resync counted is
// a watcher that lost replayability.

// WatchChurnConfig parameterizes one watch-churn run.
type WatchChurnConfig struct {
	// Jobs is the number of watched job prefixes (and watchers).
	// Default 1000.
	Jobs int
	// Cycles is the number of chaos cycles; each cycle crashes the
	// watcher fleet, forces a snapshot-restore rejoin under write
	// churn, lands leadership on the restored replica, and resumes
	// every watcher from its pre-cycle revision. Default 3.
	Cycles int
	// Replicas is the etcd cluster size. Default 3.
	Replicas int
	// SnapshotThreshold forces log compaction (and therefore snapshot
	// rejoins) quickly. Default 64.
	SnapshotThreshold int
	// Seed drives election randomness.
	Seed int64
	// Timeout bounds the whole run. Default 60s.
	Timeout time.Duration
}

func (c *WatchChurnConfig) defaults() {
	if c.Jobs <= 0 {
		c.Jobs = 1000
	}
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.SnapshotThreshold <= 0 {
		c.SnapshotThreshold = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
}

// WatchChurnResult reports one run.
type WatchChurnResult struct {
	Jobs   int `json:"jobs"`
	Cycles int `json:"cycles"`

	Writes    uint64 `json:"writes"`
	Delivered uint64 `json:"delivered"`
	// Resumes counts watcher restarts that resumed by revision.
	Resumes          uint64 `json:"resumes"`
	SnapshotRestores uint64 `json:"snapshot_restores"`
	Failovers        int64  `json:"failovers"`
	// Resyncs counts EventResync markers across all watchers — each one
	// a watcher that lost replayability and fell back to synthesized
	// current state.
	Resyncs           uint64  `json:"resyncs"`
	ResyncsPerRestore float64 `json:"resyncs_per_restore"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// churnWatcher is one job's prefix watch plus its draining goroutine.
type churnWatcher struct {
	prefix    string
	ws        *etcd.WatchStream
	done      chan struct{}
	harvested bool
}

// WatchChurn runs the experiment once.
func WatchChurn(cfg WatchChurnConfig) (WatchChurnResult, error) {
	cfg.defaults()
	// Retain comfortably more than one cycle's churn so a resuming
	// watcher can always replay.
	window := max(4*cfg.Jobs, 4096)
	c, err := etcd.NewCluster(etcd.Options{
		Replicas:          cfg.Replicas,
		Seed:              cfg.Seed,
		SnapshotThreshold: cfg.SnapshotThreshold,
		WatchHistory:      window,
		CompactRevisions:  window,
	})
	if err != nil {
		return WatchChurnResult{}, err
	}
	defer c.Stop()

	res := WatchChurnResult{Jobs: cfg.Jobs, Cycles: cfg.Cycles}
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	var delivered atomic.Uint64
	var wg sync.WaitGroup

	watch := func(prefix string, fromRev uint64) (*churnWatcher, error) {
		ws, err := c.Watch(prefix, true, fromRev)
		if err != nil {
			return nil, err
		}
		w := &churnWatcher{prefix: prefix, ws: ws, done: make(chan struct{})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(w.done)
			for range ws.Events() {
				delivered.Add(1)
			}
		}()
		return w, nil
	}

	watchers := make([]*churnWatcher, cfg.Jobs)
	for i := range watchers {
		w, err := watch(fmt.Sprintf("jobs/job-%05d/", i), 0)
		if err != nil {
			return res, err
		}
		watchers[i] = w
	}
	// crash stops a watcher and returns its resume cursor, harvesting
	// its resync count once delivery has fully drained. Idempotent: the
	// final cleanup sweep must not re-harvest a watcher already crashed
	// by an aborted cycle.
	crash := func(w *churnWatcher) uint64 {
		w.ws.Cancel()
		<-w.done
		if !w.harvested {
			w.harvested = true
			res.Resyncs += w.ws.Resyncs()
		}
		return w.ws.LastRevision()
	}

	in := chaos.NewEtcdInjector(c)
	round := 0
	writeRound := func() {
		for i := 0; i < cfg.Jobs; i++ {
			if _, err := c.Put(fmt.Sprintf("jobs/job-%05d/status", i), []byte(fmt.Sprintf("S%d", round)), 0); err == nil {
				res.Writes++
			}
		}
		round++
	}
	stale := func() {
		if _, err := c.Put("churn/stale", []byte("x"), 0); err == nil {
			res.Writes++
		}
	}
	settle := func() {
		// Delivery quiesce: wait until the fleet's counter stops moving.
		last := delivered.Load()
		for time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			cur := delivered.Load()
			if cur == last {
				return
			}
			last = cur
		}
	}

	writeRound()
	settle()
	for cycle := 0; cycle < cfg.Cycles && time.Now().Before(deadline); cycle++ {
		// The watcher fleet "crashes" first (an API replica going down),
		// remembering each job's resume revision from before the churn.
		cursors := make([]uint64, cfg.Jobs)
		for i, w := range watchers {
			cursors[i] = crash(w)
		}
		// Outage under churn: the victim replica misses a full round of
		// writes, compaction passes it by, and it rejoins via snapshot.
		victim, _ := in.OutageCycle(writeRound)
		if victim < 0 {
			break
		}
		// Land leadership on the freshly-restored replica, then resume
		// the fleet: every watcher re-attaches to it from a revision
		// that predates the churn it missed.
		in.ForceLeader(victim, stale)
		for i := range watchers {
			w, err := watch(watchers[i].prefix, cursors[i]+1)
			if err != nil {
				return res, err
			}
			watchers[i] = w
			res.Resumes++
		}
		writeRound()
		settle()
	}
	for _, w := range watchers {
		crash(w)
	}
	wg.Wait()

	res.Delivered = delivered.Load()
	_, res.Failovers, res.SnapshotRestores = in.Stats()
	if res.SnapshotRestores > 0 {
		res.ResyncsPerRestore = float64(res.Resyncs) / float64(res.SnapshotRestores)
	} else {
		res.ResyncsPerRestore = float64(res.Resyncs)
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// RenderWatchChurn formats a result as a one-row table.
func RenderWatchChurn(r WatchChurnResult) *Table {
	return &Table{
		Title: "Watch churn: resyncs per snapshot restore",
		Header: []string{"Jobs", "Cycles", "Writes", "Delivered",
			"Resumes", "Restores", "Failovers", "Resyncs", "Resyncs/restore"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.Cycles), fmt.Sprintf("%d", r.Writes),
			fmt.Sprintf("%d", r.Delivered), fmt.Sprintf("%d", r.Resumes),
			fmt.Sprintf("%d", r.SnapshotRestores), fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Resyncs), fmt.Sprintf("%.2f", r.ResyncsPerRestore),
		}},
	}
}
