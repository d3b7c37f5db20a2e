package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/perf"
)

// Job document layout in MongoDB: "job metadata (identifiers, resource
// requirements, user ids, etc.), as well as job history" (§3.2).

func manifestToDoc(m Manifest) mongo.Doc {
	return mongo.Doc{
		"name":            m.Name,
		"user":            m.User,
		"framework":       string(m.Framework),
		"model":           string(m.Model),
		"command":         m.Command,
		"learners":        m.Learners,
		"gpusPerLearner":  m.GPUsPerLearner,
		"gpuType":         string(m.GPUType),
		"cpus":            m.CPUs,
		"memoryMB":        int(m.MemoryMB),
		"batchSize":       m.BatchSize,
		"iterations":      m.Iterations,
		"checkpointEvery": m.CheckpointEvery,
		"dataBucket":      m.DataBucket,
		"dataPrefix":      m.DataPrefix,
		"resultBucket":    m.ResultBucket,
	}
}

func docToManifest(d mongo.Doc) Manifest {
	getS := func(k string) string {
		s, _ := d[k].(string)
		return s
	}
	getI := func(k string) int {
		i, _ := d[k].(int)
		return i
	}
	return Manifest{
		Name:            getS("name"),
		User:            getS("user"),
		Framework:       perf.Framework(getS("framework")),
		Model:           perf.Model(getS("model")),
		Command:         getS("command"),
		Learners:        getI("learners"),
		GPUsPerLearner:  getI("gpusPerLearner"),
		GPUType:         perf.GPUType(getS("gpuType")),
		CPUs:            getI("cpus"),
		MemoryMB:        int64(getI("memoryMB")),
		BatchSize:       getI("batchSize"),
		Iterations:      getI("iterations"),
		CheckpointEvery: getI("checkpointEvery"),
		DataBucket:      getS("dataBucket"),
		DataPrefix:      getS("dataPrefix"),
		ResultBucket:    getS("resultBucket"),
	}
}

// JobRecord is the API-facing view of a stored job.
type JobRecord struct {
	ID       string
	Manifest Manifest
	Status   JobStatus
	History  []StatusEntry
}

func docToRecord(d mongo.Doc) JobRecord {
	rec := JobRecord{Manifest: docToManifest(d)}
	rec.ID, _ = d["_id"].(string)
	if s, ok := d["status"].(string); ok {
		rec.Status = JobStatus(s)
	}
	if hist, ok := d["history"].([]any); ok {
		rec.History = make([]StatusEntry, 0, len(hist))
		for _, h := range hist {
			hd, ok := h.(mongo.Doc)
			if !ok {
				continue
			}
			entry := StatusEntry{}
			if s, ok := hd["status"].(string); ok {
				entry.Status = JobStatus(s)
			}
			if msg, ok := hd["message"].(string); ok {
				entry.Message = msg
			}
			if ts, ok := hd["time"].(string); ok {
				entry.Time, _ = time.Parse(time.RFC3339Nano, ts)
			}
			rec.History = append(rec.History, entry)
		}
	}
	return rec
}

// statusHead is the newest status this process wrote for one job and
// the lock that orders the job's writes. The platform is its jobs' only
// status writer, so a head stays true for as long as it is kept: from
// the submit that seeds it (or the first transition that loads it from
// the document) to the job's terminal status, or to a write whose
// outcome is unknown.
type statusHead struct {
	mu     sync.Mutex
	status JobStatus // "" until loaded from the document
	seq    int       // Seq of the newest history entry
	// dropped marks a head removed from the map while a writer waited
	// on mu; that writer takes a fresh head.
	dropped bool
}

// lockHead returns jobID's status head locked, adding an empty one on a
// miss. No caller holds two heads, so no lock spans jobs.
func (p *Platform) lockHead(jobID string) *statusHead {
	for {
		p.headsMu.Lock()
		h := p.heads[jobID]
		if h == nil {
			h = &statusHead{}
			p.heads[jobID] = h
		}
		p.headsMu.Unlock()
		h.mu.Lock()
		if !h.dropped {
			return h
		}
		h.mu.Unlock()
	}
}

// dropHead removes h, which the caller holds locked, from the map: the
// next transition of the job loads a fresh head from the document.
func (p *Platform) dropHead(jobID string, h *statusHead) {
	h.dropped = true
	p.headsMu.Lock()
	delete(p.heads, jobID)
	p.headsMu.Unlock()
}

// seedHead installs a newly inserted job's head, unless a transition
// racing the submit (a recovery scan's Guardian) has loaded one already.
func (p *Platform) seedHead(jobID string, status JobStatus) {
	p.headsMu.Lock()
	defer p.headsMu.Unlock()
	if p.heads[jobID] == nil {
		p.heads[jobID] = &statusHead{status: status, seq: 1}
	}
}

// setJobStatus transitions a job's status in MongoDB, appending to its
// status history, then publishes the transition on the status bus so
// watchers react without polling. Illegal transitions are rejected
// (keeping status updates "dependable", §2) — except that terminal
// states are sticky. The job's head lock is held across the write and
// the publish, so the job's bus Seqs match its MongoDB history exactly;
// other jobs' transitions do not wait on it.
func (p *Platform) setJobStatus(jobID string, to JobStatus, msg string) error {
	h := p.lockHead(jobID)
	defer h.mu.Unlock()
	if h.status == "" {
		doc, err := p.findJob(jobID)
		if err != nil {
			p.dropHead(jobID, h)
			return fmt.Errorf("core: job %s not found: %w", jobID, err)
		}
		h.status = JobStatus(doc["status"].(string))
		hist, _ := doc["history"].([]any)
		h.seq = len(hist)
	}
	from := h.status
	if from.Terminal() {
		p.dropHead(jobID, h) // a head loaded for a finished job
	}
	if from == to {
		return nil
	}
	if from.Terminal() {
		return fmt.Errorf("core: job %s already terminal (%s)", jobID, from)
	}
	if !CanTransition(from, to) {
		return fmt.Errorf("core: illegal status transition %s -> %s for %s", from, to, jobID)
	}
	now := p.clock.Now()
	err := p.mongoDo(func() error {
		return p.Jobs.UpdateOne(mongo.Filter{"_id": jobID}, mongo.Update{
			Set: mongo.Doc{"status": string(to)},
			Push: map[string]any{"history": mongo.Doc{
				"status": string(to), "time": now.Format(time.RFC3339Nano), "message": msg,
			}},
		})
	})
	if err != nil {
		// The write may have landed all the same: the next transition
		// re-reads the document.
		p.dropHead(jobID, h)
		return err
	}
	h.status, h.seq = to, h.seq+1
	p.bus.publish(jobID, StatusEvent{JobID: jobID, StatusItem: StatusItem{
		Seq:   h.seq,
		Entry: StatusEntry{Status: to, Time: now, Message: msg},
	}})
	if to.Terminal() {
		p.dropHead(jobID, h)
	}
	return nil
}

// jobStatus reads a job's current status through the mongo edge policy.
func (p *Platform) jobStatus(jobID string) (JobStatus, error) {
	doc, err := p.findJob(jobID)
	if err != nil {
		return "", err
	}
	s, _ := doc["status"].(string)
	return JobStatus(s), nil
}
