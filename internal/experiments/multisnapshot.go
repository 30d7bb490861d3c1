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

// The multisnapshot scenario's fixed shape: a run makes two
// write→snapshot-all rounds (the first CLONEs, the second only
// COMMITs) against a dedicated pool of four providers.
const (
	multisnapshotRounds    = 2
	multisnapshotProviders = 4
)

// MultisnapshotPoint reports one run: its instance count and what it
// measured. RPC counts are per commit round, averaged over the rounds
// and measured from the provider and metadata service counters (setup
// excluded).
type MultisnapshotPoint struct {
	Instances int // concurrently committing VMs

	ChunkWrites  float64 // logical chunk writes published per round
	ChunkPutRPCs float64 // provider chunk-put RPCs per round
	MetaPutRPCs  float64 // metadata-put RPCs per round (after batching)
	WriteRPCs    float64 // ChunkPutRPCs + MetaPutRPCs

	Completion float64 // last round's snapshot-all completion (s)
}

// RunMultisnapshot provisions synthetic disks for the given number of
// instances from one base image, applies the §5.3 modification pattern
// (Params.SnapshotDiff per instance and round), and snapshots all
// instances concurrently for two rounds, reporting the provider
// write-RPC cost per round. The base upload is excluded from the
// counters, as in the other experiments.
func RunMultisnapshot(p Params, instances int) MultisnapshotPoint {
	if instances < 1 {
		panic("experiments: multisnapshot needs at least one instance")
	}
	env := newEnv(p, dedicatedLayout(instances, multisnapshotProviders), OurApproach)

	writes0 := env.Sys.Providers.Writes.Load()
	puts0 := env.Sys.Providers.PutRPCs.Load()
	metaPuts0 := env.Sys.Meta.Puts.Load()

	var snap *middleware.SnapshotResult
	env.Fab.Run(func(ctx *cluster.Ctx) {
		insts := env.provisionAll(ctx, nil)
		wrRNG := sim.NewRNG(p.Seed + 7)
		for round := 0; round < multisnapshotRounds; round++ {
			err := env.Orch.RunOnAll(ctx, insts, func(cc *cluster.Ctx, inst *middleware.Instance) error {
				return p.snapshotWrites(cc, inst.Disk, 0, wrRNG.Fork())
			})
			if err != nil {
				panic(err)
			}
			snap, err = env.Orch.SnapshotAll(ctx, insts)
			if err != nil {
				panic(err)
			}
		}
	})

	pt := MultisnapshotPoint{
		Instances:    instances,
		ChunkWrites:  float64(env.Sys.Providers.Writes.Load()-writes0) / multisnapshotRounds,
		ChunkPutRPCs: float64(env.Sys.Providers.PutRPCs.Load()-puts0) / multisnapshotRounds,
		MetaPutRPCs:  float64(env.Sys.Meta.Puts.Load()-metaPuts0) / multisnapshotRounds,
		Completion:   snap.Completion,
	}
	pt.WriteRPCs = pt.ChunkPutRPCs + pt.MetaPutRPCs
	return pt
}
