package core

import (
	"sort"
	"sync"
	"time"

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
//
// A line stays bytes until someone reads it: the log holds each
// collected run of lines as one record, and a LogLine with a string
// Text is built only for a reader — LogsFrom, and the append path while
// a follow listens to the job.
type MetricsService struct {
	mu  sync.Mutex
	log *commitlog.Log
	// lines indexes each job's learner-log records, in append order, by
	// their first line offsets. A job's offsets run 0, 1, 2, ... per
	// line, while the log's own offsets count records of every job.
	lines map[string]jobLines
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

// jobLines is one job's entry in MetricsService.lines.
type jobLines struct {
	runs []logRun
	// next is the offset the job's next line takes.
	next uint64
}

// logRun is one indexed learner-log record: the offset of its first
// line, and its payload, which shares the log's bytes.
type logRun struct {
	first   uint64
	payload []byte
}

// NewMetricsService returns a service over the learner log l, indexing
// the records l already holds, whose counters live in the given
// registry (a private registry is created when nil). Records of the
// one-line layout and of runs index alike. A record that does not
// decode is skipped.
func NewMetricsService(l *commitlog.Log, reg *obs.Registry) *MetricsService {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &MetricsService{
		log:   l,
		lines: make(map[string]jobLines),
		reg:   reg,
		// A follow may fall 256 lines behind before it refills from
		// the job's log.
		live: newFanout[LogLine](256),
	}
	l.Scan(0, func(rec commitlog.Record) bool {
		if r, err := decodeLogRecord(rec.Payload); err == nil {
			m.indexLocked(string(r.JobID), rec.Payload, runLen(r.Text))
		}
		return true
	})
	return m
}

// indexLocked adds a record of n lines to jobID's index, at the job's
// next offset.
func (m *MetricsService) indexLocked(jobID string, payload []byte, n uint64) {
	jl := m.lines[jobID]
	jl.runs = append(jl.runs, logRun{first: jl.next, payload: payload})
	jl.next += n
	m.lines[jobID] = jl
}

// AppendLog ingests text, a run of whole lines from one learner of a
// job, each ending in '\n', as one learner-log record stamped t. The
// lines take the job's next offsets in order. Only while a follow
// listens to the job are they built into LogLines and fanned out; the
// fan-out stays under m.mu, which mints the offsets, so live lines
// reach every follow in offset order. text is copied, so the caller may
// hand a view of bytes it does not own.
func (m *MetricsService) AppendLog(jobID string, learner int, t time.Time, text []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first := m.lines[jobID].next
	m.lineBuf = encodeLogRecord(m.lineBuf[:0], jobID, learner, first, t, text)
	rec, err := m.log.Append("", m.lineBuf)
	if err != nil {
		return // never half-publish
	}
	m.indexLocked(jobID, rec.Payload, runLen(text))
	// A follow that subscribes after this check fills from the index,
	// which already holds the record, once it takes m.mu.
	if !m.live.listening(jobID) {
		return
	}
	off := first
	for line := range runLines(string(text)) {
		m.live.publish(jobID, LogLine{JobID: jobID, Learner: learner, Offset: off, Time: t, Text: line})
		off++
	}
}

// nextLine returns the offset jobID's next line takes.
func (m *MetricsService) nextLine(jobID string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lines[jobID].next
}

// stdoutShipped calls add for each of jobID's records whose lines start
// at offset from or later, with its learner and the bytes of that
// learner's stdout it holds: its Text, and for a record of the one-line
// layout the '\n' that layout dropped. A record that does not decode is
// skipped, as LogsFrom skips it.
func (m *MetricsService) stdoutShipped(jobID string, from uint64, add func(learner, n int)) {
	m.mu.Lock()
	runs := m.lines[jobID].runs
	m.mu.Unlock()
	i := sort.Search(len(runs), func(i int) bool { return runs[i].first >= from })
	for _, run := range runs[i:] {
		rec, err := decodeLogRecord(run.payload)
		if err != nil {
			continue
		}
		n := len(rec.Text)
		if oneLine(rec.Text) {
			n++
		}
		add(rec.Learner, n)
	}
}

// LogsFrom returns a job's lines with Offset >= from — the resumable
// read path under API.Logs. It finds the record holding from by first
// offset and splits the records from there: one string per record,
// each line a view of it.
func (m *MetricsService) LogsFrom(jobID string, from uint64) []LogLine {
	m.mu.Lock()
	jl := m.lines[jobID]
	m.mu.Unlock()
	if from >= jl.next {
		return nil
	}
	i := sort.Search(len(jl.runs), func(i int) bool { return jl.runs[i].first > from }) - 1
	out := make([]LogLine, 0, jl.next-from)
	for _, run := range jl.runs[i:] {
		rec, err := decodeLogRecord(run.payload)
		if err != nil {
			continue
		}
		off := run.first
		for text := range runLines(string(rec.Text)) {
			if off >= from {
				out = append(out, LogLine{JobID: jobID, Learner: rec.Learner, Offset: off, Time: rec.Time, Text: text})
			}
			off++
		}
	}
	return out
}

// transcript returns the text of a job's lines, each ending in '\n', in
// one buffer sized from the records: store-results' training.log. A
// run's text is copied straight from its record, with no line split
// out of it. A record that does not decode is skipped, as LogsFrom
// skips it.
func (m *MetricsService) transcript(jobID string) []byte {
	m.mu.Lock()
	runs := m.lines[jobID].runs
	m.mu.Unlock()
	n := 0
	for _, run := range runs {
		n += len(run.payload) // a payload outsizes its text and a newline
	}
	out := make([]byte, 0, n)
	for _, run := range runs {
		rec, err := decodeLogRecord(run.payload)
		if err != nil {
			continue
		}
		out = append(out, rec.Text...)
		if oneLine(rec.Text) {
			out = append(out, '\n')
		}
	}
	return out
}

// Inc bumps a named counter ("api.restarts", "guardian.rollbacks", ...).
// Names follow the dotted subsystem.name convention (see internal/obs).
func (m *MetricsService) Inc(counter string) {
	m.reg.Counter(counter).Inc()
}
