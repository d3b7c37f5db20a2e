package perf

import (
	"math"
)

// Platform overhead components (§5.1): "the source of this overhead is
// predominantly (1) Docker (very low but nonzero) (2) network
// virtualization and network security policies and (3) a driver to mount
// Cloud Object Storage buckets". Each component is modeled structurally;
// the total lands in the paper's observed 0.3-5.5% band and grows with
// distribution (more learners → more virtualized network traffic).
const (
	// dockerOverhead is the flat containerization tax.
	dockerOverhead = 0.004
	// netVirtPerLearnerPair is the virtualization + network-policy tax on
	// inter-learner synchronization traffic.
	netVirtBase = 0.006
	// driverOverheadBase is the object-store mount driver tax on the
	// input pipeline.
	driverOverheadBase = 0.008
)

// commIntensity scales network-sensitive overheads: models with bigger
// parameter tensors ship more bytes per step.
func commIntensity(m Model) float64 {
	switch m {
	case VGG16:
		return 1.5 // 138M parameters
	case InceptionV3:
		return 0.9 // 24M parameters
	case ResNet50:
		return 1.0 // 25M parameters, more steps/sec
	default:
		return 1.0
	}
}

// jitter returns a small deterministic per-config perturbation in
// [-1,1], standing in for run-to-run measurement noise so that overhead
// rows vary the way real measurements do while staying reproducible.
func jitter(c Config) float64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(string(c.Model))
	mix(string(c.Framework))
	mix(string(c.GPUType))
	mix(c.String())
	return 2*float64(h%10007)/10006 - 1
}

// FfDLOverhead returns the fractional throughput decrease of running a
// configuration on FfDL versus bare metal (Table 1 rows). The paper
// observes ≈0.3% to ≈5.4%.
func FfDLOverhead(c Config) float64 {
	comm := commIntensity(c.Model)
	// Network virtualization scales with how much synchronization
	// crosses the (virtualized) pod network: grows with learners and
	// with GPUs per learner (more gradient volume per sync).
	syncVolume := math.Log2(float64(c.Learners*c.GPUsPerL)) + 1
	netVirt := netVirtBase * comm * syncVolume
	// Driver overhead grows mildly with per-learner input rate (more
	// GPUs per learner pull more data through the mount).
	driver := driverOverheadBase * (1 + 0.25*float64(c.GPUsPerL-1))
	total := dockerOverhead + netVirt + driver
	// Measurement noise: ±35% relative, as in the paper's scatter
	// (e.g. 1L×2G VGG at 0.34% vs 1L×1G at 3.29%).
	total *= 1 + 0.35*jitter(c)
	if total < 0.002 {
		total = 0.002
	}
	if total > 0.055 {
		total = 0.055
	}
	return total
}

// FfDLThroughput is bare-metal throughput minus the platform overhead.
func FfDLThroughput(c Config) float64 {
	return BareMetalThroughput(c) * (1 - FfDLOverhead(c))
}

// DGXGap returns the fractional throughput advantage of an NVIDIA DGX-1
// (NVLink + HBM, ≈2-3× cost) over FfDL on PCIe cloud hardware for the
// same configuration (Table 2 rows): ≈3-8% at 1 GPU (HBM + tuned
// software stack), ≈10-14% at 2 GPUs (NVLink vs PCIe peer traffic).
func DGXGap(c Config) float64 {
	// Single-GPU gap: memory bandwidth + DGX software stack.
	base := 0.033 * commIntensity(c.Model)
	if c.Model == ResNet50 {
		base = 0.065 // step-rate-bound: HBM helps most
	}
	if c.GPUsPerL >= 2 {
		// NVLink removes the PCIe peer-to-peer bottleneck.
		nvlink := 0.065 * commIntensity(c.Model) * float64(c.GPUsPerL-1)
		if c.Model == ResNet50 {
			nvlink = 0.04 * float64(c.GPUsPerL-1)
		}
		base += nvlink
	}
	base *= 1 + 0.08*jitter(c)
	if base > 0.15 {
		base = 0.15
	}
	return base
}

// InputBytesPerImage is the storage traffic per training image
// (preprocessed ImageNet records average ≈110 KB).
const InputBytesPerImage = 110 * 1024

// StorageBoundThroughput caps compute throughput by the storage
// bandwidth share available to the job: images/sec cannot exceed
// share/bytes-per-image. This coupling is what degrades the late-starting
// V100 batch at heavy load in Fig. 5 — the fastest GPUs are the first to
// become input-bound when shared bandwidth shrinks.
func StorageBoundThroughput(computeImagesPerSec, bandwidthShareBytesPerSec float64) float64 {
	storageCap := bandwidthShareBytesPerSec / InputBytesPerImage
	if storageCap < computeImagesPerSec {
		return storageCap
	}
	return computeImagesPerSec
}
