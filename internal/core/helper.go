package core

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/sim"
)

// The helper pod (§3.8) contains four logical containers sharing the
// job's NFS volume with the learners:
//
//   - load-data: validates access to the training data,
//   - controller: reads learner status/exit files from the volume,
//     mirrors each status change into etcd and folds the exit codes into
//     the job's one done key (completion or the first failure),
//   - log-collector: tails learner stdout into the Training Metrics
//     Service,
//   - store-results: copies collected logs/results to the user's
//     result bucket when the job finishes.
//
// It is deployed separately from the learners so it survives learner
// crashes, and all its observations flow through (NFS, etcd) making
// status updates resilient to both controller and Guardian crashes.

// runHelper is the helper pod's process.
func (p *Platform) runHelper(ctx *kube.PodContext) int {
	jobID := ctx.Pod.Spec.RuntimeArgs["job"]
	res, ok := p.getResources(jobID)
	if !ok {
		return 1 // torn down before we started
	}
	m := res.manifest

	// load-data: verify the dataset is reachable with the job's
	// credentials, so data problems surface before GPUs are wasted.
	if m.DataBucket != "" {
		if _, err := p.Store.List(m.DataBucket, m.DataPrefix); err != nil {
			p.Metrics.AppendLog(LogLine{
				JobID: jobID, Learner: -1, Time: p.clock.Now(),
				Text: fmt.Sprintf("[load-data] dataset inaccessible: %v", err),
			})
			p.tracedPut(jobID, keyDone(jobID), []byte("3")) //nolint:errcheck
			<-ctx.Stop
			return 137
		}
	}

	lastStatus := make(map[int]string)
	exitSeen := make(map[int]int)
	logOffsets := make(map[int]int)
	doneWritten := false
	// Each learner's files, named once per incarnation, not per scan.
	paths := make([]learnerPaths, m.Learners)
	for ord := range paths {
		dir := "learners/" + strconv.Itoa(ord) + "/"
		paths[ord] = learnerPaths{status: dir + "status", exit: dir + "exit", log: dir + "stdout.log"}
	}

	// The controller wakes on volume writes — learners publish status,
	// exit and log files there — so observations reach etcd at event
	// latency. The volume drops a notification only to a full watcher,
	// whose buffer still holds one; the level-triggered scan after that
	// receive sees the dropped write, so no ticker is needed. The watch
	// channel closes when the volume is released at teardown; by then
	// the pod is being killed via Stop. Each helper incarnation
	// unsubscribes on exit, so restarts do not pile watchers onto the
	// volume.
	writes := res.volume.Watch()
	defer res.volume.Unwatch(writes)
	for {
		// controller: mirror learner statuses into etcd, collect exits.
		// Mirroring stops once the done key is written: the Guardian then
		// decides the job and deletes its etcd subtree, and a learner's
		// final status (written after its exit file) mirrored past that
		// delete would outlive the job.
		for ord, lp := range paths {
			if data, err := res.volume.ReadFile(lp.status); err == nil && !doneWritten {
				if s := string(data); s != lastStatus[ord] {
					lastStatus[ord] = s
					p.tracedPut(jobID, keyLearnerStatus(jobID, ord), data) //nolint:errcheck
				}
			}
			if _, seen := exitSeen[ord]; !seen {
				if data, err := res.volume.ReadFile(lp.exit); err == nil {
					if code, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
						exitSeen[ord] = code
					}
				}
			}
			// log-collector: ship new stdout lines to the metrics
			// service.
			p.collectLogs(jobID, ord, lp.log, res, logOffsets)
		}

		if !doneWritten {
			// Failure fast-path: any graceful nonzero exit fails the job.
			for _, code := range exitSeen {
				if code != 0 {
					p.storeResults(jobID, m)
					p.tracedPut(jobID, keyDone(jobID), []byte(strconv.Itoa(code))) //nolint:errcheck
					doneWritten = true
					break
				}
			}
			if !doneWritten && len(exitSeen) == m.Learners {
				// store-results, then signal completion.
				p.storeResults(jobID, m)
				p.tracedPut(jobID, keyDone(jobID), []byte("0")) //nolint:errcheck
				doneWritten = true
			}
		}

		select {
		case <-ctx.Stop:
			return 137
		case _, ok := <-writes:
			// Coalesce write bursts into one scan.
			if !ok || sim.Coalesce(writes, nil) {
				writes = nil // volume released; Stop remains
			}
		}
	}
}

// learnerPaths names one learner's files on the job volume.
type learnerPaths struct{ status, exit, log string }

// collectLogs tails learner ord's stdout, at logPath, from the shared
// volume.
func (p *Platform) collectLogs(jobID string, ord int, logPath string, res *jobResources, offsets map[int]int) {
	data, err := res.volume.ReadFile(logPath)
	if err != nil {
		return
	}
	off := offsets[ord]
	if len(data) <= off {
		return
	}
	chunk := string(data[off:])
	consumed := strings.LastIndexByte(chunk, '\n') + 1
	if consumed == 0 {
		return // partial line; wait for more
	}
	offsets[ord] = off + consumed
	for _, line := range strings.Split(strings.TrimRight(chunk[:consumed], "\n"), "\n") {
		p.Metrics.AppendLog(LogLine{JobID: jobID, Learner: ord, Time: p.clock.Now(), Text: line})
	}
}

// storeResults copies the job's collected logs to the result bucket —
// the store-results container's final act.
func (p *Platform) storeResults(jobID string, m Manifest) {
	var sb strings.Builder
	for _, line := range p.Metrics.Logs(jobID) {
		sb.WriteString(line.Text)
		sb.WriteByte('\n')
	}
	p.Store.Put(m.ResultBucket, jobID+"/logs/training.log", []byte(sb.String())) //nolint:errcheck
}
