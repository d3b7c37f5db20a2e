package core

import (
	"strconv"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/learner"
)

// Runtime names registered with the kube cluster.
const (
	runtimeGuardian = "ffdl/guardian"
	runtimeHelper   = "ffdl/helper"
	runtimeLearner  = "ffdl/learner"
)

// registerRuntimes installs the platform's pod processes.
func (p *Platform) registerRuntimes() {
	p.Kube.RegisterRuntime(runtimeGuardian, p.runGuardian)
	p.Kube.RegisterRuntime(runtimeHelper, p.runHelper)
	p.Kube.RegisterRuntime(runtimeLearner, p.runLearner)
}

// runLearner is the learner pod's process: it wraps the simulated DL
// framework (internal/learner) with the job's data-plane handles.
func (p *Platform) runLearner(ctx *kube.PodContext) int {
	jobID := ctx.Pod.Spec.RuntimeArgs["job"]
	ordinal, _ := strconv.Atoi(ctx.Pod.Spec.RuntimeArgs["ordinal"])
	res, ok := p.getResources(jobID)
	if !ok {
		return 1 // job torn down while this pod was starting
	}
	m := res.manifest
	proc := learner.New(learner.Spec{
		JobID:             jobID,
		Ordinal:           ordinal,
		Learners:          m.Learners,
		Model:             m.Model,
		Framework:         m.Framework,
		GPUType:           m.GPUType,
		GPUs:              m.GPUsPerLearner,
		CPUThreads:        m.CPUs,
		BatchSize:         m.BatchSize,
		Iterations:        m.Iterations,
		CheckpointEvery:   m.CheckpointEvery,
		Volume:            res.volume,
		Mount:             res.mount,
		DataBucket:        m.DataBucket,
		DataPrefix:        m.DataPrefix,
		ResultStore:       p.Store,
		ResultBucket:      m.ResultBucket,
		Clock:             p.clock,
		TimeCompression:   p.cfg.TimeCompression,
		RendezvousTimeout: p.cfg.RendezvousTimeout,
	})
	return proc.Run(ctx.Stop)
}
