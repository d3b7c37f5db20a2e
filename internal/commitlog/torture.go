package commitlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// Torture is the crash/compaction torture driver: it replays a
// recorded append workload against the file-backed SegmentStore behind
// a FaultStore, kills the store at randomized crash points, reopens,
// and asserts the recovery guarantees the Log documents:
//
//   - the recovered log is a prefix of the reference workload, with
//     any torn tail truncated (never a silent mid-log gap);
//   - no recovered offset is reused: an append after recovery mints an
//     offset past the recovered end.
//
// It is exported (rather than living in a _test file) so the
// experiment registry's commitlog row (`ffdl-bench commitlog`, gated in
// CI by `make expt-smoke`) can run it outside `go test`.

// TortureConfig parameterizes a torture run.
type TortureConfig struct {
	// Dir is the scratch root; each crash point runs in its own
	// subdirectory. Required.
	Dir string
	// Ops is the recorded workload length in appends (default 300).
	Ops int
	// CrashPoints is how many randomized crash points to kill at
	// (default 200). Points are drawn uniformly over the workload's
	// full byte journal.
	CrashPoints int
	// Seed drives the workload and the crash-point draw.
	Seed int64
	// Corrupt additionally flips bits shortly before each crash point,
	// modeling a torn sector whose tail is garbage rather than
	// missing. Recovery must still yield a clean prefix.
	Corrupt bool
	// SegmentRecords overrides the log's segment bound (default 48, so
	// a short workload still seals several segments).
	SegmentRecords int
}

// TortureResult summarizes a run. Violations is empty on success; each
// entry pins one crash point's broken invariant.
type TortureResult struct {
	CrashPoints  int      `json:"crash_points"`
	JournalBytes int64    `json:"journal_bytes"`
	RecoveredMin int      `json:"recovered_min"` // fewest records any crash point recovered
	RecoveredMax int      `json:"recovered_max"`
	Violations   []string `json:"violations,omitempty"`
}

// tortureRef is the recorded reference workload: the appended records
// in order, plus the byte journal length of a crash-free run.
type tortureRef struct {
	recs    []Record
	journal int64
}

// tortureOpts returns the log options every torture run uses.
func tortureOpts(cfg *TortureConfig) Options {
	return Options{SegmentRecords: cfg.SegmentRecords}
}

// runWorkload replays the deterministic workload against the log until
// an append fails (the injected crash) or the workload ends.
func runWorkload(l *Log, cfg *TortureConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	payload := make([]byte, 0, 64)
	for i := 0; i < cfg.Ops; i++ {
		key := fmt.Sprintf("key-%02d", rng.Intn(24))
		payload = payload[:0]
		n := 8 + rng.Intn(48)
		for j := 0; j < n; j++ {
			payload = append(payload, byte(rng.Intn(256)))
		}
		if _, err := l.Append(key, payload); err != nil {
			return
		}
	}
}

// record the crash-free reference: the full append sequence and the
// journal length crash points are drawn from.
func tortureReference(cfg *TortureConfig) (tortureRef, error) {
	dir := filepath.Join(cfg.Dir, "reference")
	fs, err := OpenFileStore(dir)
	if err != nil {
		return tortureRef{}, err
	}
	fault := NewFaultStore(fs, -1)
	l, err := Open(fault, tortureOpts(cfg))
	if err != nil {
		return tortureRef{}, err
	}
	defer l.Close() //nolint:errcheck // the reference run is done writing
	runWorkload(l, cfg)
	return tortureRef{recs: l.Records(0), journal: fault.Written()}, nil
}

// Torture runs the full suite and returns the per-invariant verdicts.
func Torture(cfg TortureConfig) (TortureResult, error) {
	if cfg.Dir == "" {
		return TortureResult{}, fmt.Errorf("commitlog: torture: Dir is required")
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 300
	}
	if cfg.CrashPoints <= 0 {
		cfg.CrashPoints = 200
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 48
	}
	ref, err := tortureReference(&cfg)
	if err != nil {
		return TortureResult{}, err
	}
	res := TortureResult{
		CrashPoints:  cfg.CrashPoints,
		JournalBytes: ref.journal,
		RecoveredMin: -1,
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for i := 0; i < cfg.CrashPoints; i++ {
		crashAt := 1 + rng.Int63n(ref.journal)
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("crash-%04d", i))
		recovered, violations := tortureOne(&cfg, &ref, dir, crashAt, rng)
		os.RemoveAll(dir) //nolint:errcheck // scratch cleanup; next run uses a fresh dir
		for _, v := range violations {
			res.Violations = append(res.Violations, fmt.Sprintf("crash@%d: %s", crashAt, v))
		}
		if res.RecoveredMin < 0 || recovered < res.RecoveredMin {
			res.RecoveredMin = recovered
		}
		if recovered > res.RecoveredMax {
			res.RecoveredMax = recovered
		}
	}
	if res.RecoveredMin < 0 {
		res.RecoveredMin = 0
	}
	return res, nil
}

// tortureOne crashes one run at crashAt, reopens, and checks every
// invariant. It returns the recovered record count and any violations.
func tortureOne(cfg *TortureConfig, ref *tortureRef, dir string, crashAt int64, rng *rand.Rand) (int, []string) {
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	fs, err := OpenFileStore(dir)
	if err != nil {
		return 0, []string{fmt.Sprintf("open file store: %v", err)}
	}
	fault := NewFaultStore(fs, crashAt)
	if cfg.Corrupt && crashAt > 2 {
		back := 1 + rng.Int63n(min(40, crashAt-1))
		fault.CorruptAt(crashAt-back, 0x80|byte(rng.Intn(0x80)))
	}
	// A crash during the very first segment create can legally fail
	// Open; recovery below must still work on the bytes.
	if l, err := Open(fault, tortureOpts(cfg)); err == nil {
		runWorkload(l, cfg)
	}
	// The crashed run's store holds a descriptor until it is closed.
	fault.Close() //nolint:errcheck // nothing is buffered

	// "Restart": reopen the raw file store, no fault injection.
	rfs, err := OpenFileStore(dir)
	if err != nil {
		return 0, []string{fmt.Sprintf("reopen file store: %v", err)}
	}
	defer rfs.Close() //nolint:errcheck // nothing is buffered
	rl, err := Open(rfs, tortureOpts(cfg))
	if err != nil {
		return 0, []string{fmt.Sprintf("recovery open: %v", err)}
	}

	// Invariant 1: recovered records are a prefix of the reference.
	recs := rl.Records(0)
	if len(recs) > len(ref.recs) {
		fail("recovered %d records, reference has %d", len(recs), len(ref.recs))
	}
	for i := range recs {
		if i >= len(ref.recs) {
			break
		}
		want, got := ref.recs[i], recs[i]
		if got.Offset != want.Offset || got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) {
			fail("record %d diverges from reference: got (%d,%q), want (%d,%q)",
				i, got.Offset, got.Key, want.Offset, want.Key)
			break
		}
	}

	// Invariant 2: no offset reuse — a post-recovery append mints an
	// offset past the recovered end.
	rec, err := rl.Append("post-recovery", []byte("x"))
	if err != nil {
		fail("post-recovery append: %v", err)
	} else if len(recs) > 0 && rec.Offset <= endOffset(recs) {
		fail("offset %d reused (recovered end %d)", rec.Offset, endOffset(recs))
	}
	return len(recs), violations
}

// endOffset returns the last record's offset (0 for empty).
func endOffset(recs []Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Offset
}
