package expt

import (
	"fmt"
	"os"

	"github.com/ffdl/ffdl/internal/commitlog"
)

// The commitlog experiment: a crash/compaction torture smoke —
// commitlog.Torture run at CI scale, so a durability regression
// (torn-tail mishandling, offset reuse) fails the gate with a named
// invariant, not a flaky downstream test. The full 200+ crash-point suite runs in `go test
// ./internal/commitlog`.

// CommitlogRun runs the torture smoke in a scratch directory; cfg.Dir
// is ignored.
func CommitlogRun(cfg commitlog.TortureConfig) (commitlog.TortureResult, error) {
	dir, err := os.MkdirTemp("", "commitlog-torture-")
	if err != nil {
		return commitlog.TortureResult{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch cleanup
	cfg.Dir = dir
	return commitlog.Torture(cfg)
}

// RenderCommitlog formats an already-computed result.
func RenderCommitlog(res commitlog.TortureResult) *Table {
	return &Table{
		Title:  "Commit log: crash torture",
		Header: []string{"Crash points", "Violations", "Recovered min", "Recovered max"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.CrashPoints), fmt.Sprintf("%d", len(res.Violations)),
			fmt.Sprintf("%d", res.RecoveredMin), fmt.Sprintf("%d", res.RecoveredMax),
		}},
	}
}
