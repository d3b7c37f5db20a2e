package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

// LogLine is one collected learner log line. Offset is its position in
// the job's log — assigned by the Training Metrics Service at ingest,
// strictly increasing per job — and doubles as the resume token for
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
// issues"). Each job's log rides the platform's commit log
// (internal/commitlog), which is what makes log streams offset-
// addressable and resumable rather than count-deduplicated.
type MetricsService struct {
	mu   sync.Mutex
	logs map[string]*commitlog.Log // jobID -> line log
	// reg is the platform's unified metrics registry: the flat counter
	// map the service historically kept now lives there as obs.Counter
	// instruments under the dotted subsystem.name convention, so the
	// same counters appear on the GET /v1/metrics scrape; Inc is the
	// write side, readers go to the registry (Platform.Obs).
	reg *obs.Registry
	// live fans each appended line out to the job's log follows.
	live *fanout[LogLine]
	// obs/clock wire hot-path instrumentation into each job's commit
	// log as it opens (append latency, compaction counters); obs is nil
	// when the platform runs the DisableObs ablation.
	obs   *obs.Registry
	clock sim.Clock
	// dataDir/storeWrap are injected by NewPlatform when Config.DataDir
	// is set: each job's log then lives in its own FileStore directory
	// (<DataDir>/learner-logs/<jobID>), and a reopened service lazily
	// reopens existing dirs — so offsets survive a process restart.
	dataDir   string
	storeWrap StoreWrapper
	// lineBuf is AppendLog's encode scratch, guarded by mu; the log
	// copies each payload into its own frame.
	lineBuf []byte
}

// NewMetricsService returns an empty service whose counters live in
// the given registry (a private registry is created when nil).
func NewMetricsService(reg *obs.Registry) *MetricsService {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &MetricsService{
		logs: make(map[string]*commitlog.Log),
		reg:  reg,
		// A follow may fall 256 lines behind before it refills from
		// the job's log.
		live: newFanout[LogLine](256),
	}
}

// jobLogLocked returns (opening if needed) a job's line log. The error
// path is real only in durable mode (a FileStore that cannot recover);
// MemStore opens cannot fail.
func (m *MetricsService) jobLogLocked(jobID string) (*commitlog.Log, error) {
	if l, ok := m.logs[jobID]; ok {
		return l, nil
	}
	store, err := openLogStore(m.dataDir, dirLearnerLogs+"/"+jobID, m.storeWrap)
	if err != nil {
		return nil, err
	}
	l, err := commitlog.Open(store, commitlog.Options{
		SegmentRecords: 1024,
		Obs:            m.obs,
		Clock:          m.clock,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open job log %s: %w", jobID, err)
	}
	m.logs[jobID] = l
	return l, nil
}

// jobLogForReadLocked resolves a job's log for a read path: an already
// open log, or a lazy reopen when the job's directory exists on disk
// (a recovered platform serving pre-restart logs). Unknown jobs return
// nil without littering DataDir with empty directories.
func (m *MetricsService) jobLogForReadLocked(jobID string) *commitlog.Log {
	if l, ok := m.logs[jobID]; ok {
		return l
	}
	if !hasLogDir(m.dataDir, dirLearnerLogs+"/"+jobID) {
		return nil
	}
	l, err := m.jobLogLocked(jobID)
	if err != nil {
		return nil
	}
	return l
}

// AppendLog ingests one log line, assigns its offset, and fans it out
// to follows. The fan-out stays under m.mu, which mints the offsets, so
// live lines reach every follow in offset order.
func (m *MetricsService) AppendLog(line LogLine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, err := m.jobLogLocked(line.JobID)
	if err != nil {
		m.reg.Counter("metrics.log_open_errors").Inc()
		return
	}
	// Mint the offset up front so the encoded line carries it (m.mu
	// serializes appends per service, so NextOffset is exact).
	line.Offset = l.NextOffset()
	m.lineBuf = encodeLogLine(m.lineBuf[:0], line)
	if _, err = l.Append("", m.lineBuf); err != nil {
		return // never half-publish
	}
	m.live.publish(line.JobID, line)
}

// logLineRec decodes the LogLine a log record's payload carries.
func logLineRec(rec commitlog.Record) (LogLine, bool) {
	line, err := decodeLogLine(rec.Payload)
	return line, err == nil
}

// Logs returns all lines for a job (copy).
func (m *MetricsService) Logs(jobID string) []LogLine {
	return m.LogsFrom(jobID, 0)
}

// LogsFrom returns a job's lines with Offset >= from — the resumable
// read path under API.Logs.
func (m *MetricsService) LogsFrom(jobID string, from uint64) []LogLine {
	m.mu.Lock()
	l := m.jobLogForReadLocked(jobID)
	m.mu.Unlock()
	if l == nil {
		return nil
	}
	recs := l.Records(from)
	out := make([]LogLine, 0, len(recs))
	for _, rec := range recs {
		if line, isLine := logLineRec(rec); isLine {
			out = append(out, line)
		}
	}
	return out
}

// Inc bumps a named counter ("api.restarts", "guardian.rollbacks", ...).
// Names follow the dotted subsystem.name convention (see internal/obs).
func (m *MetricsService) Inc(counter string) {
	m.reg.Counter(counter).Inc()
}
