package core

import (
	"fmt"
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

// setJobStatus transitions a job's status in MongoDB, appending to its
// status history, then publishes the transition on the status bus so
// watchers react without polling. Illegal transitions are rejected
// (keeping status updates "dependable", §2) — except that terminal
// states are sticky. Writes are serialized per platform so the bus
// sequence numbers match the MongoDB history exactly.
func (p *Platform) setJobStatus(jobID string, to JobStatus, msg string) error {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	doc, err := p.findJob(jobID)
	if err != nil {
		return fmt.Errorf("core: job %s not found: %w", jobID, err)
	}
	from := JobStatus(doc["status"].(string))
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
	err = p.mongoDo(func() error {
		return p.Jobs.UpdateOne(mongo.Filter{"_id": jobID}, mongo.Update{
			Set: mongo.Doc{"status": string(to)},
			Push: map[string]any{"history": map[string]any{
				"status": string(to), "time": now.Format(time.RFC3339Nano), "message": msg,
			}},
		})
	})
	if err != nil {
		return err
	}
	seq := 1
	if hist, ok := doc["history"].([]any); ok {
		seq = len(hist) + 1
	}
	p.bus.publish(jobID, StatusEvent{JobID: jobID, StatusItem: StatusItem{
		Seq:   seq,
		Entry: StatusEntry{Status: to, Time: now, Message: msg},
	}})
	// Trace the transition with the same clock read the history entry
	// was written with, so the root span's duration equals the job's
	// submit→terminal wall time exactly.
	if to.Terminal() {
		p.Tracer.Finish(jobID, string(to), now)
	} else {
		p.Tracer.Phase(jobID, string(to), now)
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
