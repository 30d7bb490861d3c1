package experiments

import (
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// This file implements the multisnapshot write-path scenario: the
// paper's §5.3 workload (every instance commits a local diff at the
// same instant) run against a small dedicated provider pool, measured
// on the axis the write path is designed around — provider write RPCs
// per commit round. A commit groups its chunk publishes by target
// provider (one RPC per provider per round, mirroring the metadata
// service's PutBatch) and fetches the dirty tree paths level by level,
// so a round costs instances × providers chunk-put RPCs however many
// chunks each instance dirtied; the scenario reports RPC counts beside
// the times for that reason.

// MultisnapshotConfig parameterizes one multisnapshot run.
type MultisnapshotConfig struct {
	// Instances is the number of concurrently committing VMs.
	Instances int
	// Providers is the dedicated provider pool size (default 4).
	Providers int
	// DiffBytes overrides the per-instance local modification size per
	// round (default Params.SnapshotDiff).
	DiffBytes int64
}

// multisnapshotRounds is how many write→snapshot-all cycles a run
// makes: the first round CLONEs, the second only COMMITs.
const multisnapshotRounds = 2

// MultisnapshotPoint reports one run: the MultisnapshotConfig it ran,
// defaults filled in, and what it measured. RPC counts are per commit
// round, averaged over the rounds and measured from the provider and
// metadata service counters (setup excluded).
type MultisnapshotPoint struct {
	MultisnapshotConfig

	ChunkWrites  float64 // logical chunk writes published per round
	ChunkPutRPCs float64 // provider chunk-put RPCs per round
	MetaPutRPCs  float64 // metadata-put RPCs per round (after batching)
	WriteRPCs    float64 // ChunkPutRPCs + MetaPutRPCs

	Completion float64 // last round's snapshot-all completion (s)
}

// RunMultisnapshot provisions mc.Instances synthetic disks from one
// base image, applies the §5.3 modification pattern, and snapshots all
// instances concurrently for two rounds, reporting the provider
// write-RPC cost per round. The base upload is excluded from the
// counters, as in the other experiments.
func RunMultisnapshot(p Params, mc MultisnapshotConfig) MultisnapshotPoint {
	if mc.Instances < 1 {
		panic("experiments: multisnapshot needs at least one instance")
	}
	if mc.Providers <= 0 {
		mc.Providers = 4
	}
	if mc.DiffBytes <= 0 {
		mc.DiffBytes = p.SnapshotDiff
	}
	env := newEnv(p, dedicatedLayout(mc.Instances, mc.Providers), OurApproach)

	writes0 := env.Sys.Providers.Writes.Load()
	puts0 := env.Sys.Providers.PutRPCs.Load()
	metaPuts0 := env.Sys.Meta.Puts.Load()

	var snap *middleware.SnapshotResult
	env.Fab.Run(func(ctx *cluster.Ctx) {
		instances := env.provisionAll(ctx, nil)
		wrRNG := sim.NewRNG(p.Seed + 7)
		for round := 0; round < multisnapshotRounds; round++ {
			err := env.Orch.RunOnAll(ctx, instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
				return SnapshotWritesIn(cc, inst.Disk, mc.DiffBytes, int64(p.ChunkSize), 0, wrRNG.Fork())
			})
			if err != nil {
				panic(err)
			}
			snap, err = env.Orch.SnapshotAll(ctx, instances)
			if err != nil {
				panic(err)
			}
		}
	})

	pt := MultisnapshotPoint{
		MultisnapshotConfig: mc,
		ChunkWrites:         float64(env.Sys.Providers.Writes.Load()-writes0) / multisnapshotRounds,
		ChunkPutRPCs:        float64(env.Sys.Providers.PutRPCs.Load()-puts0) / multisnapshotRounds,
		MetaPutRPCs:         float64(env.Sys.Meta.Puts.Load()-metaPuts0) / multisnapshotRounds,
		Completion:          snap.Completion,
	}
	pt.WriteRPCs = pt.ChunkPutRPCs + pt.MetaPutRPCs
	return pt
}
