package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Span is one node of a job's trace tree. The root span covers the
// job's whole lifetime (submit to terminal status); its children are
// the lifecycle phases in causal order (QUEUED, PENDING, DEPLOYING,
// ...), and phase children are sub-operations that started while that
// phase was current (lcm.deploy, etcd.propose, sched.bind). A span
// with a zero End is still open; an Event span has End == Start.
type Span struct {
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end,omitempty"`
	Children []*Span   `json:"children,omitempty"`
}

// Duration is the span's wall time (0 while open).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is one job's exported span tree.
type Trace struct {
	JobID string `json:"job_id"`
	Root  *Span  `json:"root"`
}

// chromeEvent is one Chrome trace-event ("X" complete event). ts/dur
// are microseconds; ts is relative to the trace root so the numbers
// stay small and Perfetto lays the trace out from zero.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// ChromeTrace renders the trace in Chrome trace-event JSON (an array of
// complete events), loadable in Perfetto / chrome://tracing. The job
// lifecycle (root + phases) lands on tid 1, sub-operation spans on
// tid 2.
func (t Trace) ChromeTrace() ([]byte, error) {
	if t.Root == nil {
		return []byte("[]"), nil
	}
	origin := t.Root.Start
	var events []chromeEvent
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		tid := 1
		if depth >= 2 {
			tid = 2
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(end.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
		})
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return json.Marshal(events)
}

// Tracer records the sub-operations of each job (lcm.deploy,
// etcd.propose, sched.bind) as a flat list of closed spans. The job's
// lifecycle phases are not kept here: the durable status history holds
// them, and the trace endpoint hangs these sub-spans under the phases it
// rebuilds from that history. All methods are nil-receiver safe no-ops,
// so a disabled platform calls them for free. Timestamps are supplied
// by callers from the same sim.Clock the status history is written
// from, so a sub-span falls inside the phase it ran in.
//
// Retention is bounded: once maxJobs jobs are held, a new job's first
// sub-span evicts the oldest job's list.
type Tracer struct {
	mu      sync.Mutex
	jobs    map[string][]*Span
	order   []string
	maxJobs int
}

// NewTracer returns a tracer retaining the sub-spans of up to maxJobs
// jobs (default 4096 when maxJobs <= 0).
func NewTracer(maxJobs int) *Tracer {
	if maxJobs <= 0 {
		maxJobs = 4096
	}
	return &Tracer{jobs: make(map[string][]*Span), maxJobs: maxJobs}
}

// Begin does nothing: a job's list opens on its first Sub. It stays
// only because the benchmark's obs probe calls it (ROADMAP 1a).
func (t *Tracer) Begin(string, time.Time) {}

// Sub records a closed sub-operation span for the job.
func (t *Tracer) Sub(jobID, name string, start, end time.Time) {
	if t == nil {
		return
	}
	sp := &Span{Name: name, Start: start, End: end}
	t.mu.Lock()
	defer t.mu.Unlock()
	subs, ok := t.jobs[jobID]
	if !ok {
		for len(t.jobs) >= t.maxJobs && len(t.order) > 0 {
			delete(t.jobs, t.order[0])
			t.order = t.order[1:]
		}
		t.order = append(t.order, jobID)
	}
	t.jobs[jobID] = append(subs, sp)
}

// Event records a zero-duration marker for the job.
func (t *Tracer) Event(jobID, name string, at time.Time) {
	t.Sub(jobID, name, at, at)
}

// Subs returns the job's sub-spans in the order they were recorded, or
// nil for a job the tracer never saw or has evicted. The slice is a
// capped view of the tracer's list and the spans are shared: both are
// read-only, and later records do not show through.
func (t *Tracer) Subs(jobID string) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	subs := t.jobs[jobID]
	return subs[:len(subs):len(subs)]
}
