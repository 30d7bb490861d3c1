package experiments

import (
	"blobvfs/internal/vmmodel"
	"blobvfs/internal/workloads"
)

// Params bundles every constant of the evaluation. All values come
// from §5.1–5.5 of the paper except WriteBuffer, which the paper
// describes (§5.3) but does not quantify. taktuk's per-hop rate
// (broadcast.DefaultEffRate) and the launch jitter (jitterMin,
// jitterMax) are constants, not parameters.
type Params struct {
	// MaxInstances is the largest sweep point (one VM per node).
	MaxInstances int
	// ImageSize is the initial VM image size (2 GB, §5.1).
	ImageSize int64
	// ChunkSize is the stripe/chunk unit for both the blob store and
	// PVFS (256 KB, §5.2).
	ChunkSize int
	// Replicas is the chunk replication degree (1: "chunks were not
	// replicated" for fairness, §5.2).
	Replicas int
	// Seed drives every random stream of the experiment.
	Seed int64
	// Boot is the boot-phase model.
	Boot vmmodel.BootConfig
	// SnapshotDiff is the per-instance local modification size for the
	// multisnapshotting experiment (15 MB, §5.3).
	SnapshotDiff int64
	// WriteBuffer is the per-provider asynchronous write-back buffer.
	// BlobSeer acknowledges writes once buffered (§5.3); the bound is
	// what makes average snapshot time degrade gently as concurrent
	// write pressure grows.
	WriteBuffer int64
	// MonteCarlo is the application model of §5.5.
	MonteCarlo workloads.MonteCarloConfig
}

// Default returns the paper's experimental setup.
func Default() Params {
	const imageSize = 2 << 30
	return Params{
		MaxInstances: 110,
		ImageSize:    imageSize,
		ChunkSize:    256 << 10,
		Replicas:     1,
		Seed:         42,
		Boot:         vmmodel.DefaultBootConfig(imageSize),
		SnapshotDiff: 15 << 20,
		WriteBuffer:  4 << 20,
		MonteCarlo:   workloads.DefaultMonteCarloConfig(),
	}
}

// Quick returns a scaled-down setup for fast tests: a 256 MB image and
// a proportionally smaller boot footprint. Shapes are preserved;
// absolute values are not comparable to the paper.
func Quick() Params {
	p := Default()
	p.ImageSize = 256 << 20
	p.Boot = vmmodel.BootConfig{
		ImageSize:    p.ImageSize,
		TouchedBytes: 16 << 20,
		Extents:      40,
		MeanOpLen:    64 << 10,
		WriteOps:     10,
		WriteLen:     8 << 10,
		TotalThink:   1.0,
	}
	p.SnapshotDiff = 4 << 20
	p.MonteCarlo.ComputeSeconds = 100
	p.MonteCarlo.SaveEvery = 25
	p.MonteCarlo.SaveBytes = 2 << 20
	p.MonteCarlo.SaveOffset = 128 << 20
	return p
}
