package core

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"github.com/ffdl/ffdl/internal/codec"
	"github.com/ffdl/ffdl/internal/commitlog"
)

// Durable-log plumbing: where each platform log lives under
// Config.DataDir, and the payload codec (on internal/codec's shared
// reader) for learner log lines, which the learner log stores, in
// memory or on disk. The DataDir layout is one commitlog.FileStore
// directory per log, two in all, however many jobs run:
//
//	<DataDir>/mongo-oplog/    the metadata store's oplog
//	<DataDir>/learner-logs/   every job's learner lines, interleaved
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

// Learner log line codec. The payload follows internal/codec's wire
// rules; like the mongo oplog codec it carries no checksum of its own
// (commit-log record frames already CRC their payloads). Layout:
//
//	JobID | Learner | Offset | Time (unix ns) | Text

// encodeLogLine appends the durable form of a learner log line.
func encodeLogLine(dst []byte, line LogLine) []byte {
	dst = codec.AppendString(dst, line.JobID)
	dst = binary.AppendVarint(dst, int64(line.Learner))
	dst = binary.AppendUvarint(dst, line.Offset)
	dst = binary.AppendVarint(dst, line.Time.UnixNano())
	return codec.AppendString(dst, line.Text)
}

// decodeLogLine parses one durable learner log line.
func decodeLogLine(data []byte) (LogLine, error) {
	r := codec.NewReader(data)
	var line LogLine
	var err error
	if line.JobID, err = r.String(); err != nil {
		return LogLine{}, err
	}
	learner, err := r.Varint()
	if err != nil {
		return LogLine{}, err
	}
	line.Learner = int(learner)
	if line.Offset, err = r.Uvarint(); err != nil {
		return LogLine{}, err
	}
	ns, err := r.Varint()
	if err != nil {
		return LogLine{}, err
	}
	line.Time = time.Unix(0, ns)
	if line.Text, err = r.String(); err != nil {
		return LogLine{}, err
	}
	return line, r.Done()
}

// logLineText returns the Text of one durable learner log line as a
// view of data. It checks the whole line as decodeLogLine does but
// keeps no other field: store-results copies the text straight from
// the learner log.
func logLineText(data []byte) ([]byte, error) {
	r := codec.NewReader(data)
	if _, err := r.Bytes(); err != nil { // JobID
		return nil, err
	}
	if _, err := r.Varint(); err != nil { // Learner
		return nil, err
	}
	if _, err := r.Uvarint(); err != nil { // Offset
		return nil, err
	}
	if _, err := r.Varint(); err != nil { // Time
		return nil, err
	}
	text, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	return text, r.Done()
}
