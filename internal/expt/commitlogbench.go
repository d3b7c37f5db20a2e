package expt

import (
	"fmt"
	"os"

	"github.com/ffdl/ffdl/internal/commitlog"
)

// The commitlog experiment: a crash/compaction torture smoke —
// commitlog.Torture run at CI scale, so a durability regression
// (torn-tail mishandling, offset reuse, a consumer cursor drifting off
// its acked commit) fails the gate with a named invariant, not a flaky
// downstream test.

// CommitlogConfig parameterizes one -commitlog run.
type CommitlogConfig struct {
	// TortureOps / TortureCrashPoints size the torture run (defaults
	// 300 appends, 40 crash points — the full 200+ suite runs in `go
	// test ./internal/commitlog`).
	TortureOps         int
	TortureCrashPoints int
	Seed               int64
}

func (c *CommitlogConfig) defaults() {
	if c.TortureOps <= 0 {
		c.TortureOps = 300
	}
	if c.TortureCrashPoints <= 0 {
		c.TortureCrashPoints = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// CommitlogResult is the full -commitlog payload.
type CommitlogResult struct {
	Torture commitlog.TortureResult `json:"torture"`
}

// CommitlogRun runs the torture smoke in a scratch directory.
func CommitlogRun(cfg CommitlogConfig) (CommitlogResult, error) {
	cfg.defaults()
	dir, err := os.MkdirTemp("", "commitlog-torture-")
	if err != nil {
		return CommitlogResult{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch cleanup
	torture, err := commitlog.Torture(commitlog.TortureConfig{
		Dir:         dir,
		Ops:         cfg.TortureOps,
		CrashPoints: cfg.TortureCrashPoints,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return CommitlogResult{}, err
	}
	return CommitlogResult{Torture: torture}, nil
}

// RenderCommitlog formats an already-computed result.
func RenderCommitlog(res CommitlogResult) *Table {
	return &Table{
		Title:  "Commit log: crash torture",
		Header: []string{"Crash points", "Violations", "Recovered min", "Recovered max"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.Torture.CrashPoints), fmt.Sprintf("%d", len(res.Torture.Violations)),
			fmt.Sprintf("%d", res.Torture.RecoveredMin), fmt.Sprintf("%d", res.Torture.RecoveredMax),
		}},
	}
}
