package experiments

import (
	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// This file implements the churn scenario: the long-running cloud of
// the paper's "going back and forth" workflow (§3.2), where every
// instance snapshots again and again. Without a lifecycle, each cycle
// adds the diff's chunks and metadata forever — storage grows without
// bound. With keep-last-K retention plus the snapshot garbage
// collector (internal/blob/gc.go), old versions are retired after each
// round and the chunks only they referenced are reclaimed, so the
// provider pool's footprint plateaus no matter how long the cloud
// runs. The scenario exists to demonstrate exactly that bound.

// ChurnConfig parameterizes one churn run.
type ChurnConfig struct {
	// Instances is the deployment fan-out.
	Instances int
	// Cycles is how many write→snapshot→retire→collect rounds run.
	Cycles int
	// KeepLast is the retention window per instance (≥1). 0 disables
	// retention and GC, showing the unbounded baseline.
	KeepLast int
}

// ChurnCycle samples the storage footprint after one cycle's
// snapshot + retention + collection.
type ChurnCycle struct {
	Cycle     int
	Chunks    int     // chunk payloads stored after the cycle
	StoredMB  float64 // payload MB stored (one copy per chunk)
	MetaNodes int     // segment-tree nodes stored
	Reclaimed int64   // cumulative chunk payloads reclaimed so far
	Retired   int     // versions retired this cycle
}

// ChurnPoint reports one churn run: the ChurnConfig it ran, and what
// it measured.
type ChurnPoint struct {
	ChurnConfig

	ReclaimedBytes int64   // chunk payload bytes freed in total
	FreedNodes     int64   // tree nodes swept in total
	Completion     float64 // virtual time of the whole churn (s)

	PerCycle []ChurnCycle // cycle 0 is the deployment before any churn
}

// RunChurn deploys cc.Instances instances against the flash crowd's
// dedicated pool (p2p sharing off), then runs cc.Cycles rounds of local
// modifications (Params.SnapshotDiff per instance, confined to the hot
// window) + concurrent snapshots under the keep-last-K retention
// policy, collecting garbage after every round. The image upload is
// excluded from the measurements, as in the other experiments.
func RunChurn(p Params, cc ChurnConfig) ChurnPoint {
	if cc.Instances < 1 {
		panic("experiments: churn needs at least one instance")
	}
	if cc.Cycles < 1 {
		panic("experiments: churn needs at least one cycle")
	}

	env := newEnv(p, dedicatedLayout(cc.Instances, flashProviders), OurApproach)
	sys := env.Sys

	pt := ChurnPoint{ChurnConfig: cc}
	sample := func(cycle, retired int) {
		pt.PerCycle = append(pt.PerCycle, ChurnCycle{
			Cycle:     cycle,
			Chunks:    sys.Providers.ChunkCount(),
			StoredMB:  float64(sys.Providers.StoredBytes()) / (1 << 20),
			MetaNodes: sys.Meta.NodeCount(),
			Reclaimed: sys.Providers.Freed.Load(),
			Retired:   retired,
		})
	}

	wrRNG := sim.NewRNG(p.Seed + 7)
	env.Fab.Run(func(ctx *cluster.Ctx) {
		dep := env.deploy(ctx)
		sample(0, 0)
		for cycle := 1; cycle <= cc.Cycles; cycle++ {
			err := env.Orch.RunOnAll(ctx, dep.Instances, func(icc *cluster.Ctx, inst *middleware.Instance) error {
				return p.snapshotWrites(icc, inst.Disk, p.hotWindow(), wrRNG.Fork())
			})
			if err != nil {
				panic(err)
			}
			// Each instance snapshots and then retires its own lineage's
			// old versions on its own node: a blob's "last K" is per
			// instance, so a fast instance's retirement needs no barrier
			// and overlaps the slow ones' commits. Collection reclaims
			// shared chunks, so it waits for the whole round.
			retired := make([]int, len(dep.Instances))
			err = env.Orch.RunOnAll(ctx, dep.Instances, func(icc *cluster.Ctx, inst *middleware.Instance) error {
				err := env.Backend.Snapshot(icc, inst.Index, inst.Node, inst.Disk)
				if err == nil && cc.KeepLast > 0 {
					retired[inst.Index], err = env.Repo.RetireOld(icc, inst.Disk.(*blobvfs.Disk), cc.KeepLast)
				}
				return err
			})
			if err != nil {
				panic(err)
			}
			n := 0
			for _, r := range retired {
				n += r
			}
			if cc.KeepLast > 0 {
				if _, err := env.Repo.GC(ctx); err != nil {
					panic(err)
				}
			}
			sample(cycle, n)
		}
		pt.Completion = ctx.Now()
	})

	pt.ReclaimedBytes = sys.Providers.FreedBytes.Load()
	pt.FreedNodes = sys.Meta.Freed.Load()
	return pt
}
