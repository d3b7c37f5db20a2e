package core

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/nfs"
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
			p.Metrics.AppendLog(jobID, -1, p.clock.Now(), fmt.Appendf(nil, "[load-data] dataset inaccessible: %v\n", err))
			for {
				if _, err := p.tracedPut(jobID, keyDone(jobID), []byte("3")); err == nil {
					break
				}
				retry := p.clock.NewTimer(p.cfg.PollInterval * 10)
				select {
				case <-ctx.Stop:
					retry.Stop()
					return 137
				case <-retry.C:
				}
			}
			<-ctx.Stop
			return 137
		}
	}

	scan := newHelperScan(p, jobID, res.volume, m.Learners, res.logFrom)

	// The controller wakes on volume writes — learners publish status,
	// exit and log files there — so observations reach etcd at event
	// latency. A watcher holds one pending wake-up, which a write that
	// finds it pending does not add to; the level-triggered scan after
	// that receive sees every write before it, so no ticker is needed.
	// The watch channel closes when the volume is released at teardown;
	// by then the pod is being killed via Stop. Each helper incarnation
	// unsubscribes on exit, so restarts do not pile watchers onto the
	// volume.
	//
	// An etcd put that failed is made again by the next scan. No volume
	// write need come to start that scan, and the Guardian holds no
	// timer while its watch is healthy, so a failed put arms one retry
	// timer (PollInterval*10); while puts succeed, none is armed.
	writes := res.volume.Watch()
	defer res.volume.Unwatch(writes)
	var retry *sim.Timer
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()
	for {
		failed := !scan.scan()
		if !scan.done {
			if code, decided := scan.outcome(); decided {
				// store-results, then signal the outcome.
				p.storeResults(jobID, m)
				_, err := p.tracedPut(jobID, keyDone(jobID), []byte(strconv.Itoa(code)))
				scan.done = err == nil
				failed = failed || !scan.done
			}
		}
		var retryC <-chan time.Time
		if failed && retry == nil {
			retry = p.clock.NewTimer(p.cfg.PollInterval * 10)
		}
		if retry != nil {
			retryC = retry.C
		}

		select {
		case <-ctx.Stop:
			return 137
		case <-retryC:
			retry = nil
		case _, ok := <-writes:
			// Coalesce write bursts into one scan.
			if !ok || sim.Coalesce(writes, nil) {
				writes = nil // volume released; Stop remains
			}
		}
	}
}

// helperScan is what the controller and log-collector know of a job's
// learners between wakes. A scan reads each learner's files as views of
// the volume's bytes and copies only what changed since the last one: a
// scan that finds nothing new allocates nothing.
type helperScan struct {
	p        *Platform
	jobID    string
	vol      *nfs.Volume
	learners []learnerFiles
	// done is set once a done-key put succeeds. Mirroring stops there:
	// the Guardian then decides the job and deletes its etcd subtree, and
	// a learner's final status (written after its exit file) mirrored
	// past that delete would outlive the job.
	done bool
}

// learnerFiles is one learner's files on the job volume and its etcd
// status key — named once per helper incarnation, not per scan — and
// what the helper has taken from them.
type learnerFiles struct {
	status, exit, log string
	statusKey         string
	// mirrored is the status last put to etcd, set once the put
	// succeeds: a volume view, which no later write changes.
	mirrored []byte
	exited   bool
	code     int
	// logOff is how many bytes of the log have been shipped, by this
	// incarnation or an earlier one.
	logOff int
}

// newHelperScan names the files of a job's learners on vol. Each
// learner's shipped offset starts at the bytes its learner-log records
// from line logFrom on already hold — the lines earlier helper
// incarnations shipped from vol — so a restarted helper ships each
// line once. For a job with no such records (every first incarnation)
// that costs one index lookup.
func newHelperScan(p *Platform, jobID string, vol *nfs.Volume, learners int, logFrom uint64) *helperScan {
	h := &helperScan{p: p, jobID: jobID, vol: vol, learners: make([]learnerFiles, learners)}
	for ord := range h.learners {
		dir := "learners/" + strconv.Itoa(ord) + "/"
		h.learners[ord] = learnerFiles{status: dir + "status", exit: dir + "exit", log: dir + "stdout.log",
			statusKey: keyLearnerStatus(jobID, ord)}
	}
	p.Metrics.stdoutShipped(jobID, logFrom, func(learner, n int) {
		if learner >= 0 && learner < len(h.learners) {
			h.learners[learner].logOff += n
		}
	})
	return h
}

// scan mirrors each learner's changed status into etcd, records its
// exit code once written, and ships its new stdout lines. It reports
// whether every etcd put it made succeeded; a status whose put failed
// is put again by the next scan.
func (h *helperScan) scan() (ok bool) {
	ok = true
	for ord := range h.learners {
		l := &h.learners[ord]
		if !h.done {
			if data, err := h.vol.ReadFile(l.status); err == nil && !bytes.Equal(data, l.mirrored) {
				if _, err := h.p.tracedPut(h.jobID, l.statusKey, data); err == nil {
					l.mirrored = data
				} else {
					ok = false
				}
			}
		}
		if !l.exited {
			if data, err := h.vol.ReadFile(l.exit); err == nil {
				if code, err := strconv.Atoi(string(bytes.TrimSpace(data))); err == nil {
					l.exited, l.code = true, code
				}
			}
		}
		h.collectLogs(ord, l)
	}
	return ok
}

// outcome folds the exit codes seen so far into the job's: the first
// graceful nonzero exit fails the job at once, and a job whose learners
// all exited 0 completes. decided is false while neither holds.
func (h *helperScan) outcome() (code int, decided bool) {
	exited := 0
	for _, l := range h.learners {
		if !l.exited {
			continue
		}
		if l.code != 0 {
			return l.code, true
		}
		exited++
	}
	return 0, exited == len(h.learners)
}

// collectLogs is the log-collector: it ships the complete lines of
// learner ord's stdout past the shipped offset, blank lines included,
// as one run sliced from the volume's bytes. A partial last line waits
// for its newline.
func (h *helperScan) collectLogs(ord int, l *learnerFiles) {
	data, err := h.vol.ReadFile(l.log)
	if err != nil || len(data) <= l.logOff {
		return
	}
	tail := data[l.logOff:]
	n := bytes.LastIndexByte(tail, '\n') + 1
	if n == 0 {
		return
	}
	h.p.Metrics.AppendLog(h.jobID, ord, h.p.clock.Now(), tail[:n])
	l.logOff += n
}

// storeResults copies the job's collected logs to the result bucket —
// the store-results container's final act.
func (p *Platform) storeResults(jobID string, m Manifest) {
	p.Store.Put(m.ResultBucket, jobID+"/logs/training.log", p.Metrics.transcript(jobID)) //nolint:errcheck
}
