package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"path/filepath"
	"strings"
	"time"

	"github.com/ffdl/ffdl/internal/codec"
	"github.com/ffdl/ffdl/internal/commitlog"
)

// Durable-log plumbing: where each platform log lives under
// Config.DataDir, and the payload codec (on internal/codec's shared
// reader) for learner-log records, which the learner log stores, in
// memory or on disk. The DataDir layout is one commitlog.FileStore
// directory per log, two in all, however many jobs run:
//
//	<DataDir>/mongo-oplog/    the metadata store's oplog
//	<DataDir>/learner-logs/   every job's learner-log records, interleaved
//
// With DataDir unset every log rides a MemStore and nothing survives
// the process — the simulation default. etcd is intentionally not in
// DataDir: its coordination state (learner keys, control verbs) is
// rebuilt from scratch on a cold restart, and its watches are live
// streams with nothing to resume.

// Log directory names under DataDir.
const (
	dirMongoOplog  = "mongo-oplog"
	dirLearnerLogs = "learner-logs"
)

// StoreWrapper wraps a durable log's segment store as it opens. name is
// the log's DataDir-relative directory ("mongo-oplog" or
// "learner-logs"). The chaos harness injects commitlog.FaultStore
// corruption under the real file layout this way; production configs
// leave it nil.
type StoreWrapper func(name string, store commitlog.SegmentStore) commitlog.SegmentStore

// openLogStore opens the segment store for the named log: a FileStore
// under dataDir, or a fresh MemStore when dataDir is empty.
func openLogStore(dataDir, name string, wrap StoreWrapper) (commitlog.SegmentStore, error) {
	var store commitlog.SegmentStore
	if dataDir == "" {
		store = commitlog.NewMemStore()
	} else {
		fs, err := commitlog.OpenFileStore(filepath.Join(dataDir, name))
		if err != nil {
			return nil, fmt.Errorf("core: open %s store: %w", name, err)
		}
		store = fs
	}
	if wrap != nil {
		store = wrap(name, store)
	}
	return store, nil
}

// Learner log record codec. The payload follows internal/codec's wire
// rules; like the mongo oplog codec it carries no checksum of its own
// (commit-log record frames already CRC their payloads). Layout:
//
//	JobID | Learner | Offset | Time (unix ns) | Text
//
// A record is the run of lines one collector scan took from one
// learner's stdout, all stamped with the scan's time. Text is the run,
// every line ending in '\n', and Offset is its first line's: the lines
// take offsets Offset, Offset+1, ... in order. A record of the older
// one-line layout holds a single line with no '\n' ending it, and still
// reads as that one line.

// logRecord is one learner-log record decoded in place: JobID and Text
// are views of the payload.
type logRecord struct {
	JobID   []byte
	Learner int
	Offset  uint64
	Time    time.Time
	Text    []byte
}

// encodeLogRecord appends the durable form of a learner-log record.
func encodeLogRecord(dst []byte, jobID string, learner int, first uint64, t time.Time, text []byte) []byte {
	dst = codec.AppendString(dst, jobID)
	dst = binary.AppendVarint(dst, int64(learner))
	dst = binary.AppendUvarint(dst, first)
	dst = binary.AppendVarint(dst, t.UnixNano())
	return codec.AppendBytes(dst, text)
}

// decodeLogRecord parses one durable learner-log record without copying.
func decodeLogRecord(data []byte) (logRecord, error) {
	r := codec.NewReader(data)
	var rec logRecord
	var err error
	if rec.JobID, err = r.Bytes(); err != nil {
		return logRecord{}, err
	}
	learner, err := r.Varint()
	if err != nil {
		return logRecord{}, err
	}
	rec.Learner = int(learner)
	if rec.Offset, err = r.Uvarint(); err != nil {
		return logRecord{}, err
	}
	ns, err := r.Varint()
	if err != nil {
		return logRecord{}, err
	}
	rec.Time = time.Unix(0, ns)
	if rec.Text, err = r.Bytes(); err != nil {
		return logRecord{}, err
	}
	return rec, r.Done()
}

// oneLine reports whether a record's Text has the one-line layout: no
// '\n' ends it.
func oneLine(text []byte) bool { return len(text) == 0 || text[len(text)-1] != '\n' }

// runLen is the number of lines in a record's Text: its newlines, or
// one for a Text of the one-line layout.
func runLen(text []byte) uint64 {
	if oneLine(text) {
		return 1
	}
	return uint64(bytes.Count(text, []byte{'\n'}))
}

// runLines yields the lines of a record's Text, in order, as views of
// it without their '\n'. A Text of the one-line layout is one line,
// whatever it holds.
func runLines(text string) iter.Seq[string] {
	return func(yield func(string) bool) {
		if !strings.HasSuffix(text, "\n") {
			yield(text)
			return
		}
		for line := range strings.Lines(text) {
			if !yield(line[:len(line)-1]) {
				return
			}
		}
	}
}
