package commitlog

import (
	"strings"
	"testing"
)

// TestTortureCrashPoints is the PR's acceptance gate: the crash torture
// driver kills the file-backed store at >= 200 randomized crash points
// and every recovery invariant must hold at every one of them.
func TestTortureCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("torture suite skipped in -short")
	}
	res, err := Torture(TortureConfig{
		Dir:         t.TempDir(),
		Ops:         300,
		CrashPoints: 220,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Torture: %v", err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%d invariant violations:\n%s",
			len(res.Violations), strings.Join(res.Violations, "\n"))
	}
	if res.CrashPoints < 200 {
		t.Fatalf("only %d crash points, acceptance requires >= 200", res.CrashPoints)
	}
	if res.RecoveredMax == 0 {
		t.Fatal("no crash point recovered any records; crash draw is broken")
	}
	t.Logf("journal %d bytes, recovered %d..%d records across %d crash points",
		res.JournalBytes, res.RecoveredMin, res.RecoveredMax, res.CrashPoints)
}

// TestTortureWithCorruption re-runs a slice of the suite with bit-flips
// injected shortly before each crash point: recovery must still produce
// a clean prefix and never reuse a recovered offset.
func TestTortureWithCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("torture suite skipped in -short")
	}
	res, err := Torture(TortureConfig{
		Dir:         t.TempDir(),
		Ops:         200,
		CrashPoints: 60,
		Seed:        2,
		Corrupt:     true,
	})
	if err != nil {
		t.Fatalf("Torture: %v", err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%d invariant violations under corruption:\n%s",
			len(res.Violations), strings.Join(res.Violations, "\n"))
	}
}
