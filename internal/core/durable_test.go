package core

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
)

// TestLogLineCodecGoldenBytes pins the durable learner-log record
// layout byte for byte, on a record of the one-line layout.
func TestLogLineCodecGoldenBytes(t *testing.T) {
	const want = "0f747261696e696e672d30303030303104ac028a80d0e2c6bfce972f0f697465726174696f6e2031302f3430"
	got := encodeLogRecord(nil, "training-000001", 2, 300, time.Unix(1700000000, 5), []byte("iteration 10/40"))
	if hex.EncodeToString(got) != want {
		t.Fatalf("log record bytes changed:\n got %x\nwant %s", got, want)
	}
}

// FuzzLogLineRoundtrip fuzzes the learner-log record codec: a record
// built from the inputs round-trips, a fuzz-chosen proper prefix of its
// encoding errors, and arbitrary bytes never panic. Its Text reads as
// lines the same way whatever the bytes: a run ending in '\n' splits
// into runLen lines that rebuild it, and any other Text — a record of
// the one-line layout — is one line as it stands.
func FuzzLogLineRoundtrip(f *testing.F) {
	f.Add("training-000001", 2, uint64(300), int64(1700000000000000005), "iteration 10/40", uint(3), []byte{})
	f.Add("", -1, uint64(1<<63), int64(-1), "", uint(0), []byte{0x01, 'j', 0x00, 0x00, 0x00, 0xff})
	f.Add("training-000002", 0, uint64(7), int64(1), "a\n\nb c\n\n", uint(9), []byte{0x01, 'j', 0x00, 0x00, 0x00, 0x02, '\n', '\n'})
	f.Add("training-000003", 1, uint64(0), int64(0), "x\ny", uint(1), []byte{})
	f.Fuzz(func(t *testing.T, jobID string, learner int, offset uint64, ns int64, text string, cut uint, raw []byte) {
		data := encodeLogRecord(nil, jobID, learner, offset, time.Unix(0, ns), []byte(text))
		got, err := decodeLogRecord(data)
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if string(got.JobID) != jobID || got.Learner != learner || got.Offset != offset ||
			got.Time.UnixNano() != ns || string(got.Text) != text {
			t.Fatalf("roundtrip mismatch: got %+v", got)
		}
		lines := slices.Collect(runLines(text))
		if uint64(len(lines)) != runLen([]byte(text)) {
			t.Fatalf("runLines yields %d lines of %q, runLen says %d", len(lines), text, runLen([]byte(text)))
		}
		if strings.HasSuffix(text, "\n") {
			rebuilt := ""
			for _, line := range lines {
				if strings.Contains(line, "\n") {
					t.Fatalf("line %q of run %q holds a newline", line, text)
				}
				rebuilt += line + "\n"
			}
			if rebuilt != text {
				t.Fatalf("lines %q rebuild %q, want %q", lines, rebuilt, text)
			}
		} else if len(lines) != 1 || lines[0] != text {
			t.Fatalf("one-line record %q reads as %q", text, lines)
		}
		n := int(cut % uint(len(data)))
		if _, err := decodeLogRecord(data[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
		}
		if rec, err := decodeLogRecord(raw); err == nil {
			if k := len(slices.Collect(runLines(string(rec.Text)))); runLen(rec.Text) != uint64(k) {
				t.Fatalf("raw record: runLen %d, runLines %d", runLen(rec.Text), k)
			}
		}
	})
}

// openFDsUnder counts this process's descriptors on files under dir.
func openFDsUnder(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("descriptor table not readable: %v", err)
	}
	n := 0
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestStoppedPlatformReleasesDataDir pins the durable logs' lifecycle:
// a running DataDir platform holds one descriptor per log, a stopped
// one holds none and takes no late write, and a platform reopened on
// the same DataDir sees every job with its history and log lines.
func TestStoppedPlatformReleasesDataDir(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t, func(c *Config) { c.DataDir = dir })
	c := p.Client()
	var jobs []string
	for i := 0; i < 2; i++ {
		jobID, err := c.Submit(context.Background(), testManifest())
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)
		jobs = append(jobs, jobID)
	}
	if n := openFDsUnder(t, dir); n != 2 {
		t.Fatalf("a running platform holds %d descriptors under DataDir, want 2 (one per log)", n)
	}
	before := map[string]int{}
	for _, jobID := range jobs {
		before[jobID] = len(p.Metrics.LogsFrom(jobID, 0))
	}
	p.Stop()
	if n := openFDsUnder(t, dir); n != 0 {
		t.Fatalf("a stopped platform holds %d descriptors under DataDir, want 0", n)
	}
	if err := p.Jobs.UpdateOne(mongo.Filter{"_id": jobs[0]}, mongo.Update{Set: mongo.Doc{"late": true}}); err == nil {
		t.Fatal("a stopped platform took a metadata write")
	}

	p2 := newTestPlatform(t, func(c *Config) { c.DataDir = dir })
	for _, jobID := range jobs {
		doc, err := p2.Jobs.FindOne(mongo.Filter{"_id": jobID})
		if err != nil {
			t.Fatalf("job %s after reopen: %v", jobID, err)
		}
		if doc["status"] != string(StatusCompleted) || doc["late"] != nil {
			t.Fatalf("job %s after reopen: status %v, late %v", jobID, doc["status"], doc["late"])
		}
		if got := len(p2.Metrics.LogsFrom(jobID, 0)); got != before[jobID] || got == 0 {
			t.Fatalf("job %s after reopen: %d log lines, want %d", jobID, got, before[jobID])
		}
	}
}
