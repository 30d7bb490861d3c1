package experiments

import (
	"fmt"

	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/p2p"
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
	// Rounds is how many write→snapshot-all cycles run (default 2;
	// the first round CLONEs, later rounds only COMMIT).
	Rounds int
	// DiffBytes overrides the per-instance local modification size per
	// round (default Params.SnapshotDiff).
	DiffBytes int64
}

// MultisnapshotPoint reports one run. RPC counts are per commit round,
// averaged over the configured rounds and measured from the provider
// and metadata service counters (setup excluded).
type MultisnapshotPoint struct {
	Instances int
	Providers int
	Rounds    int

	ChunkWrites  float64 // logical chunk writes published per round
	ChunkPutRPCs float64 // provider chunk-put RPCs per round
	MetaPutRPCs  float64 // metadata-put RPCs per round (after batching)
	WriteRPCs    float64 // ChunkPutRPCs + MetaPutRPCs

	Completion float64 // last round's snapshot-all completion (s)
}

// RunMultisnapshot provisions mc.Instances synthetic disks from one
// base image, applies the §5.3 modification pattern, and snapshots all
// instances concurrently for mc.Rounds rounds, reporting the provider
// write-RPC cost per round. The base upload is excluded from the
// counters, as in the other experiments.
func RunMultisnapshot(p Params, mc MultisnapshotConfig) MultisnapshotPoint {
	if mc.Instances < 1 {
		panic("experiments: multisnapshot needs at least one instance")
	}
	if mc.Providers <= 0 {
		mc.Providers = 4
	}
	if mc.Rounds <= 0 {
		mc.Rounds = 2
	}
	diff := p.SnapshotDiff
	if mc.DiffBytes > 0 {
		diff = mc.DiffBytes
	}
	sp := newSmallPool(p, mc.Instances, mc.Providers, false, p2p.Config{}, cluster.Topology{})

	writes0 := sp.Sys.Providers.Writes.Load()
	puts0 := sp.Sys.Providers.PutRPCs.Load()
	metaPuts0 := sp.Sys.Meta.Puts.Load()

	var snap *middleware.SnapshotResult
	sp.Fab.Run(func(ctx *cluster.Ctx) {
		instances := make([]*middleware.Instance, mc.Instances)
		errs := make([]error, mc.Instances)
		var tasks []cluster.Task
		for i := 0; i < mc.Instances; i++ {
			i := i
			node := sp.InstNodes[i]
			tasks = append(tasks, ctx.Go("prep", node, func(cc *cluster.Ctx) {
				disk, err := sp.Backend.Provision(cc, i, node)
				if err != nil {
					errs[i] = err
					return
				}
				instances[i] = &middleware.Instance{Index: i, Node: node, Disk: disk}
			}))
		}
		ctx.WaitAll(tasks)
		for _, err := range errs {
			if err != nil {
				panic(err)
			}
		}
		wrRNG := sim.NewRNG(p.Seed + 7)
		for round := 0; round < mc.Rounds; round++ {
			tasks = tasks[:0]
			for i := 0; i < mc.Instances; i++ {
				i := i
				rng := wrRNG.Fork()
				inst := instances[i]
				tasks = append(tasks, ctx.Go("dirty", inst.Node, func(cc *cluster.Ctx) {
					errs[i] = SnapshotWrites(cc, inst.Disk, diff, int64(p.ChunkSize), rng)
				}))
			}
			ctx.WaitAll(tasks)
			for _, err := range errs {
				if err != nil {
					panic(err)
				}
			}
			var err error
			snap, err = sp.Orch.SnapshotAll(ctx, instances)
			if err != nil {
				panic(err)
			}
		}
	})

	rounds := float64(mc.Rounds)
	pt := MultisnapshotPoint{
		Instances:    mc.Instances,
		Providers:    mc.Providers,
		Rounds:       mc.Rounds,
		ChunkWrites:  float64(sp.Sys.Providers.Writes.Load()-writes0) / rounds,
		ChunkPutRPCs: float64(sp.Sys.Providers.PutRPCs.Load()-puts0) / rounds,
		MetaPutRPCs:  float64(sp.Sys.Meta.Puts.Load()-metaPuts0) / rounds,
		Completion:   snap.Completion,
	}
	pt.WriteRPCs = pt.ChunkPutRPCs + pt.MetaPutRPCs
	return pt
}

// MultisnapshotTable renders a run's write-RPC cost per commit round.
func MultisnapshotTable(pt MultisnapshotPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Multisnapshot write path: provider write RPCs per commit round",
		Columns: []string{
			"instances", "providers", "chunk writes",
			"chunk-put RPCs", "meta-put RPCs", "write RPCs", "completion (s)",
		},
	}
	t.AddRow(
		itoa(pt.Instances),
		itoa(pt.Providers),
		fmt.Sprintf("%.0f", pt.ChunkWrites),
		fmt.Sprintf("%.0f", pt.ChunkPutRPCs),
		fmt.Sprintf("%.0f", pt.MetaPutRPCs),
		fmt.Sprintf("%.0f", pt.WriteRPCs),
		ftoa(pt.Completion),
	)
	return t
}
