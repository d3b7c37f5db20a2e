package chaos

import (
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/core"
)

// ProcessRestart is the restart-the-world harness: it models the
// coarsest fault the platform can survive — a full-process crash and
// cold restart. The Injector and CrashAPI/CrashLCM kill individual
// components inside a live process; a process restart instead loses
// every in-memory substrate at once (kube state, etcd coordination,
// the object store, the RPC registry, all in-flight goroutines) and
// keeps only what core.Config.DataDir persisted: the mongo oplog and
// the learner log.
//
// Provision re-creates the external world — worker nodes, seeded
// dataset buckets — the way an operator's bootstrap would after a real
// machine restart. Everything else must come back from the durable
// logs: job documents and status history, log offsets, and the
// retained floors that decide replay vs resync.
type ProcessRestart struct {
	cfg       core.Config
	provision func(*core.Platform) error
	p         *core.Platform
	restarts  int
	// lastReopen is how long the most recent boot (NewPlatform +
	// provision) took — recovery replay included.
	lastReopen time.Duration
}

// NewProcessRestart boots the first platform generation. provision (may
// be nil) runs after every boot, first included.
func NewProcessRestart(cfg core.Config, provision func(*core.Platform) error) (*ProcessRestart, error) {
	r := &ProcessRestart{cfg: cfg, provision: provision}
	if err := r.boot(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ProcessRestart) boot() error {
	start := time.Now()
	p, err := core.NewPlatform(r.cfg)
	if err != nil {
		return fmt.Errorf("chaos: boot platform: %w", err)
	}
	if r.provision != nil {
		if err := r.provision(p); err != nil {
			p.Stop()
			return fmt.Errorf("chaos: provision: %w", err)
		}
	}
	r.lastReopen = time.Since(start)
	r.p = p
	return nil
}

// Platform returns the live generation.
func (r *ProcessRestart) Platform() *core.Platform { return r.p }

// Restart tears the entire platform down — mid-workload, nothing is
// drained — and boots a fresh generation from the same Config (and so
// the same DataDir). It returns the new generation.
func (r *ProcessRestart) Restart() (*core.Platform, error) {
	r.p.Stop()
	r.restarts++
	if err := r.boot(); err != nil {
		return nil, err
	}
	return r.p, nil
}

// Restarts returns how many full restarts have run.
func (r *ProcessRestart) Restarts() int { return r.restarts }

// ReopenLatency returns the wall time of the most recent boot,
// recovery replay included.
func (r *ProcessRestart) ReopenLatency() time.Duration { return r.lastReopen }

// Stop stops the live generation.
func (r *ProcessRestart) Stop() { r.p.Stop() }
