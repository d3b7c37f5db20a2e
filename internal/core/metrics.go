package core

import (
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/codec"
	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/obs"
)

// LogLine is one collected learner log line. Offset is its position
// among its job's lines — assigned by the Training Metrics Service at
// ingest, 0, 1, 2, ... per job — and doubles as the resume token for
// followers: a client that reconnects (or outlives an API replica
// restart) asks for lines from its last offset + 1 and misses nothing.
type LogLine struct {
	JobID   string
	Learner int
	Offset  uint64
	Time    time.Time
	Text    string
}

// MetricsService is the Training Metrics Service (§3.2): it collects
// per-job training logs (streamed by the log-collector helpers) into a
// searchable index — the role ElasticSearch/Kibana plays in the paper's
// deployment — and counts platform health metrics ("number of times
// microservices fail and recover, and frequency of connectivity
// issues"). Every job's lines ride one commit log (internal/commitlog),
// which is what makes log streams offset-addressable and resumable
// rather than count-deduplicated.
type MetricsService struct {
	mu  sync.Mutex
	log *commitlog.Log
	// lines indexes the log's records by job, in append order. The
	// records share the log's payload bytes. A line's Offset is its
	// position here, so each job's offsets run 0, 1, 2, ... while the
	// log's own offsets interleave jobs.
	lines map[string][]commitlog.Record
	// reg is the platform's unified metrics registry: the flat counter
	// map the service historically kept now lives there as obs.Counter
	// instruments under the dotted subsystem.name convention, so the
	// same counters appear on the GET /v1/metrics scrape; Inc is the
	// write side, readers go to the registry (Platform.Obs).
	reg *obs.Registry
	// live fans each appended line out to the job's log follows.
	live *fanout[LogLine]
	// lineBuf is AppendLog's encode scratch, guarded by mu; the log
	// copies each payload into its own frame.
	lineBuf []byte
}

// NewMetricsService returns a service over the learner log l, indexing
// the lines l already holds, whose counters live in the given registry
// (a private registry is created when nil). A record whose JobID does
// not decode is skipped.
func NewMetricsService(l *commitlog.Log, reg *obs.Registry) *MetricsService {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &MetricsService{
		log:   l,
		lines: make(map[string][]commitlog.Record),
		reg:   reg,
		// A follow may fall 256 lines behind before it refills from
		// the job's log.
		live: newFanout[LogLine](256),
	}
	l.Scan(0, func(rec commitlog.Record) bool {
		r := codec.NewReader(rec.Payload)
		if jobID, err := r.Bytes(); err == nil {
			m.lines[string(jobID)] = append(m.lines[string(jobID)], rec)
		}
		return true
	})
	return m
}

// AppendLog ingests one log line, assigns its offset, and fans it out
// to follows. The fan-out stays under m.mu, which mints the offsets, so
// live lines reach every follow in offset order.
func (m *MetricsService) AppendLog(line LogLine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	recs := m.lines[line.JobID]
	line.Offset = uint64(len(recs))
	m.lineBuf = encodeLogLine(m.lineBuf[:0], line)
	rec, err := m.log.Append("", m.lineBuf)
	if err != nil {
		return // never half-publish
	}
	m.lines[line.JobID] = append(recs, rec)
	m.live.publish(line.JobID, line)
}

// Logs returns all lines for a job (copy).
func (m *MetricsService) Logs(jobID string) []LogLine {
	return m.LogsFrom(jobID, 0)
}

// LogsFrom returns a job's lines with Offset >= from — the resumable
// read path under API.Logs.
func (m *MetricsService) LogsFrom(jobID string, from uint64) []LogLine {
	m.mu.Lock()
	recs := m.lines[jobID]
	m.mu.Unlock()
	if from >= uint64(len(recs)) {
		return nil
	}
	recs = recs[from:]
	out := make([]LogLine, 0, len(recs))
	for _, rec := range recs {
		if line, err := decodeLogLine(rec.Payload); err == nil {
			out = append(out, line)
		}
	}
	return out
}

// transcript returns the text of a job's lines, each ending in '\n', in
// one buffer sized from the records: store-results' training.log. The
// text is copied straight from each record; no line is decoded. A
// record that does not decode is skipped, as LogsFrom skips it.
func (m *MetricsService) transcript(jobID string) []byte {
	m.mu.Lock()
	recs := m.lines[jobID]
	m.mu.Unlock()
	n := 0
	for _, rec := range recs {
		n += len(rec.Payload) // a payload outsizes its text and newline
	}
	out := make([]byte, 0, n)
	for _, rec := range recs {
		if text, err := logLineText(rec.Payload); err == nil {
			out = append(append(out, text...), '\n')
		}
	}
	return out
}

// Inc bumps a named counter ("api.restarts", "guardian.rollbacks", ...).
// Names follow the dotted subsystem.name convention (see internal/obs).
func (m *MetricsService) Inc(counter string) {
	m.reg.Counter(counter).Inc()
}
