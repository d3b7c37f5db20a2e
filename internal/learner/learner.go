// Package learner implements the simulated DL training process that runs
// inside FfDL's learner containers. The platform treats user code as a
// black box (§2: "it is not feasible to analyze the user code"), so the
// simulation only needs to produce the externally observable behaviour a
// real Caffe/TensorFlow learner produces:
//
//   - it streams its dataset from the mounted object store (load phase),
//   - it rendezvouses with its peer learners before making progress —
//     which is why partially scheduled jobs deadlock (§3.5),
//   - it emits stdout logs and periodic checkpoints to the object store,
//   - it writes its status and exit code to files on the shared NFS
//     volume, where the helper pod's controller container observes them
//     (§3.8),
//   - on restart it resumes from the latest checkpoint found in its
//     bucket (§3.8 "Checkpointing").
//
// Training time is modeled with internal/perf throughputs, compressed by
// a configurable factor so tests replay hours of training in
// milliseconds.
package learner

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/ffdl/ffdl/internal/nfs"
	"github.com/ffdl/ffdl/internal/objstore"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sim"
)

// File layout on the shared NFS volume, under "learners/<ordinal>/".
// The controller reads these.
const (
	// statusFile holds one of the LearnerStatus strings.
	statusFile = "status"
	// exitFile holds the process exit code, written exactly once at
	// termination.
	exitFile = "exit"
	// readyFile marks rendezvous arrival.
	readyFile = "ready"
	// logFile accumulates stdout.
	logFile = "stdout.log"
)

// learnerDir is the volume directory of learner ord's files.
func learnerDir(ord int) string { return "learners/" + strconv.Itoa(ord) + "/" }

// Status strings written to the volume.
const (
	StatusDownloading = "DOWNLOADING"
	StatusWaiting     = "WAITING_FOR_PEERS"
	StatusProcessing  = "PROCESSING"
	StatusStoring     = "STORING"
	StatusCompleted   = "COMPLETED"
	StatusFailed      = "FAILED"
)

// The status files' bytes, made once: the volume copies what it writes.
var (
	downloading = []byte(StatusDownloading)
	waiting     = []byte(StatusWaiting)
	processing  = []byte(StatusProcessing)
	storing     = []byte(StatusStoring)
	completed   = []byte(StatusCompleted)
	failed      = []byte(StatusFailed)
)

// Spec configures one learner process.
type Spec struct {
	// JobID and Ordinal identify this learner within its job.
	JobID   string
	Ordinal int
	// Learners is the gang size (for rendezvous).
	Learners int

	// Training configuration.
	Model      perf.Model
	Framework  perf.Framework
	GPUType    perf.GPUType
	GPUs       int
	CPUThreads int
	BatchSize  int
	// Iterations is the total training iterations for the job.
	Iterations int
	// CheckpointEvery is the checkpoint interval in iterations; 0
	// disables checkpointing.
	CheckpointEvery int

	// Data plane.
	Volume     *nfs.Volume
	Mount      *objstore.Mount
	DataBucket string
	DataPrefix string
	// ResultStore receives checkpoints and the final model.
	ResultStore  *objstore.Service
	ResultBucket string

	// Clock and compression: one modeled second costs
	// TimeCompression real seconds of Clock.Sleep. Zero compresses
	// fully (no sleeps) — still yielding between iterations.
	Clock           sim.Clock
	TimeCompression float64

	// RendezvousTimeout bounds how long the learner waits for peers
	// before giving up (the "temporarily deadlocked" state, §3.5; real
	// frameworks eventually fail). Zero waits forever.
	RendezvousTimeout time.Duration
}

// Process is a running learner.
type Process struct {
	spec Spec

	// The learner's files on the volume, named once.
	statusPath, exitPath, logPath string
	// readyPaths names every gang member's ready file, this learner's at
	// its ordinal; nil for a learner without peers.
	readyPaths []string
	// line is the log scratch: the line prefix, then the line being
	// written. The volume copies what it appends.
	line      []byte
	prefixLen int
}

// lineRoom is the room New leaves in the log scratch past the line
// prefix: enough for every line a healthy run writes.
const lineRoom = 96

// New returns a learner process for the spec.
func New(spec Spec) *Process {
	if spec.Clock == nil {
		spec.Clock = sim.NewRealClock()
	}
	if spec.BatchSize <= 0 {
		spec.BatchSize = 64
	}
	dir := learnerDir(spec.Ordinal)
	prefix := "[" + spec.JobID + " learner-" + strconv.Itoa(spec.Ordinal) + "] "
	p := &Process{
		spec:       spec,
		statusPath: dir + statusFile,
		exitPath:   dir + exitFile,
		logPath:    dir + logFile,
		line:       append(make([]byte, 0, len(prefix)+lineRoom), prefix...),
		prefixLen:  len(prefix),
	}
	if spec.Learners > 1 {
		p.readyPaths = make([]string, spec.Learners)
		for i := range p.readyPaths {
			p.readyPaths[i] = learnerDir(i) + readyFile
		}
	}
	return p
}

// setStatus publishes s to the helper's controller. In modeled time
// (TimeCompression > 0) a phase lasts, so the learner then yields the
// processor: the write wakes the controller behind this learner, and a
// CPU-bound next step — streaming the dataset — would otherwise run to
// its end before the controller reads the file, hiding a phase the
// learner went through. At TimeCompression 0 every phase is an instant
// and the controller samples them.
func (p *Process) setStatus(status []byte) {
	p.spec.Volume.WriteFile(p.statusPath, status) //nolint:errcheck // volume release races job teardown
	if p.spec.TimeCompression > 0 {
		runtime.Gosched()
	}
}

// Stdout lines. Each starts with the learner's prefix, "[<job>
// learner-<ord>] ", and is built with strconv in the log scratch, so a
// line allocates nothing once the scratch has room for it. Each
// helper's comment names the fmt verbs whose output it matches byte for
// byte.

// logs writes the line of parts, in order: fmt's "%s%s...".
func (p *Process) logs(parts ...string) {
	b := p.line[:p.prefixLen]
	for _, s := range parts {
		b = append(b, s...)
	}
	p.writeLine(b)
}

// logAt writes the line head, n, tail: fmt's "<head>%d<tail>".
func (p *Process) logAt(head string, n int, tail string) {
	b := strconv.AppendInt(append(p.line[:p.prefixLen], head...), int64(n), 10)
	p.writeLine(append(b, tail...))
}

// logIteration writes the progress line, fmt's "iteration %d/%d
// loss=%.4f images/sec=%.1f".
func (p *Process) logIteration(iter, total int, loss, thpt float64) {
	b := append(p.line[:p.prefixLen], "iteration "...)
	b = append(strconv.AppendInt(b, int64(iter), 10), '/')
	b = append(strconv.AppendInt(b, int64(total), 10), " loss="...)
	b = append(strconv.AppendFloat(b, loss, 'f', 4, 64), " images/sec="...)
	p.writeLine(strconv.AppendFloat(b, thpt, 'f', 1, 64))
}

// writeLine ends line, built on the log scratch, with '\n' and appends
// it to stdout. The scratch keeps whatever room the line grew it to.
func (p *Process) writeLine(line []byte) {
	p.line = append(line, '\n')
	p.spec.Volume.AppendFile(p.logPath, p.line) //nolint:errcheck
}

// ckptKey formats a checkpoint object key; iteration is zero-padded so
// lexicographic object listing yields chronological order and "latest =
// last" (how FfDL finds the newest checkpoint, §3.8).
func (p *Process) ckptKey(iter int) string {
	return fmt.Sprintf("%s/checkpoints/ckpt-%09d", p.spec.JobID, iter)
}

// latestCheckpoint returns the iteration of the newest checkpoint, or 0.
func (p *Process) latestCheckpoint() int {
	if p.spec.ResultStore == nil {
		return 0
	}
	objs, err := p.spec.ResultStore.List(p.spec.ResultBucket, p.spec.JobID+"/checkpoints/")
	if err != nil || len(objs) == 0 {
		return 0
	}
	last := objs[len(objs)-1].Key
	idx := strings.LastIndex(last, "ckpt-")
	if idx < 0 {
		return 0
	}
	n, err := strconv.Atoi(last[idx+len("ckpt-"):])
	if err != nil {
		return 0
	}
	return n
}

// modeledSleep sleeps compressed modeled time, abortable by stop.
func (p *Process) modeledSleep(modeled time.Duration, stop <-chan struct{}) bool {
	real_ := time.Duration(float64(modeled) * p.spec.TimeCompression)
	if real_ <= 0 {
		return true
	}
	select {
	case <-stop:
		return false
	case <-p.spec.Clock.After(real_):
		return true
	}
}

// Run executes the learner until completion or kill; it returns the
// process exit code. The exit code is also written to the volume's exit
// file (unless the process was killed mid-flight, exactly like a real
// SIGKILL'd container, which is how the controller distinguishes crash
// from completion).
func (p *Process) Run(stop <-chan struct{}) int {
	code, kill := p.run(stop)
	if !kill {
		// Graceful path: record exit for the controller.
		p.spec.Volume.WriteFile(p.exitPath, []byte(strconv.Itoa(code))) //nolint:errcheck
		if code == 0 {
			p.setStatus(completed)
		} else {
			p.setStatus(failed)
		}
		// FfDL learner containers stay alive after finishing until the
		// platform tears the job down; completion is signaled through
		// the exit file, not the pod phase.
		<-stop
	}
	return code
}

// run returns (exitCode, killedMidFlight).
func (p *Process) run(stop <-chan struct{}) (int, bool) {
	select {
	case <-stop:
		return 137, true
	default:
	}
	// Phase 1: stream the dataset through the mounted object store.
	p.setStatus(downloading)
	p.logs("downloading dataset ", p.spec.DataBucket, "/", p.spec.DataPrefix)
	if p.spec.Mount != nil {
		objs, err := p.spec.ResultStore.List(p.spec.DataBucket, p.spec.DataPrefix)
		if err != nil {
			p.logs("dataset list failed: ", err.Error())
			return 1, false
		}
		for _, o := range objs {
			// The read stands for an epoch's pass over the shard; the
			// simulated training consumes nothing of it.
			if _, err := p.spec.Mount.ReadAll(o.Key); err != nil {
				p.logs("dataset read ", o.Key, " failed: ", err.Error())
				return 1, false
			}
		}
	}

	// Phase 2: rendezvous with peers (synchronous data parallelism).
	if p.spec.Learners > 1 {
		p.setStatus(waiting)
		if !p.waitForPeers(stop) {
			select {
			case <-stop:
				return 137, true
			default:
			}
			p.logs("rendezvous timeout: peers never arrived")
			return 2, false
		}
	}

	// Phase 3: train, resuming from the latest checkpoint.
	start := p.latestCheckpoint()
	if start > 0 {
		p.logAt("resuming from checkpoint at iteration ", start, "")
	}
	p.setStatus(processing)
	cfg := perf.Config{
		Model: p.spec.Model, Framework: p.spec.Framework, GPUType: p.spec.GPUType,
		GPUsPerL: max(1, p.spec.GPUs), Learners: max(1, p.spec.Learners),
		CPUThreads: p.spec.CPUThreads, BatchSize: p.spec.BatchSize,
	}
	thpt := perf.FfDLThroughput(cfg) / float64(max(1, p.spec.Learners))
	if thpt <= 0 {
		p.writeLine(fmt.Appendf(p.line[:p.prefixLen], "invalid training configuration: %+v", cfg))
		return 1, false
	}
	secPerIter := float64(p.spec.BatchSize) / thpt
	logEvery := max(1, p.spec.Iterations/10)
	for iter := start + 1; iter <= p.spec.Iterations; iter++ {
		if !p.modeledSleep(time.Duration(secPerIter*float64(time.Second)), stop) {
			return 137, true
		}
		select {
		case <-stop:
			return 137, true
		default:
		}
		if iter%logEvery == 0 || iter == p.spec.Iterations {
			p.logIteration(iter, p.spec.Iterations, 4.0/float64(1+iter), thpt)
		}
		if p.spec.CheckpointEvery > 0 && iter%p.spec.CheckpointEvery == 0 && p.spec.Ordinal == 0 {
			if err := p.checkpoint(iter); err != nil {
				p.logAt("checkpoint at ", iter, " failed: "+err.Error())
			} else {
				p.logAt("checkpoint written at iteration ", iter, "")
			}
		}
	}

	// Phase 4: store the trained model (learner 0 writes it).
	p.setStatus(storing)
	if p.spec.Ordinal == 0 && p.spec.ResultStore != nil {
		key := p.spec.JobID + "/model/final.bin"
		if err := p.spec.ResultStore.Put(p.spec.ResultBucket, key, p.modelBytes(p.spec.Iterations)); err != nil {
			p.logs("storing final model failed: ", err.Error())
			return 1, false
		}
		p.logs("final model stored at ", key)
	}
	return 0, false
}

// waitForPeers announces this learner's arrival with its ready file and
// blocks until every gang member has written one. It returns false on
// timeout or kill.
//
// The wait is event-driven: it subscribes to the volume before writing
// its own ready file, so no peer's write can fall between announcing and
// waiting, and rescans the ready files after every notification. The
// volume drops a notification only to a full watcher, whose buffer still
// holds one the rescan after it covers, so no wake-up is lost and no
// poll is needed. A closed channel means the volume was released; the
// learner then waits only for stop or the timeout.
func (p *Process) waitForPeers(stop <-chan struct{}) bool {
	vol := p.spec.Volume
	writes := vol.Watch()
	defer vol.Unwatch(writes)
	vol.WriteFile(p.readyPaths[p.spec.Ordinal], []byte("1")) //nolint:errcheck // a released volume has closed writes
	var timeout <-chan time.Time
	if p.spec.RendezvousTimeout > 0 {
		t := p.spec.Clock.NewTimer(p.spec.RendezvousTimeout)
		defer t.Stop()
		timeout = t.C
	}
	for {
		ready := 0
		for _, path := range p.readyPaths {
			if vol.Exists(path) {
				ready++
			}
		}
		if ready == len(p.readyPaths) {
			return true
		}
		select {
		case <-stop:
			return false
		case <-timeout:
			return false
		case _, ok := <-writes:
			// Coalesce write bursts into one scan.
			if !ok || sim.Coalesce(writes, nil) {
				writes = nil // volume released; stop and timeout remain
			}
		}
	}
}

// checkpoint persists training state to the object store.
func (p *Process) checkpoint(iter int) error {
	if p.spec.ResultStore == nil {
		return errors.New("learner: no result store configured")
	}
	return p.spec.ResultStore.Put(p.spec.ResultBucket, p.ckptKey(iter), p.modelBytes(iter))
}

// modelBytes fabricates a deterministic "model" blob whose content
// encodes the iteration (so resume tests can verify which checkpoint was
// loaded).
func (p *Process) modelBytes(iter int) []byte {
	return fmt.Appendf(nil, "model(%s@%d)", p.spec.JobID, iter)
}
