package experiments

import (
	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// This file implements the ablations for the design choices the paper
// argues qualitatively in §3.1.3 but does not plot:
//
//   - chunk size: "a chunk that is too large may lead to false
//     sharing ... a chunk that is too small implies a higher access
//     overhead" — the 256 KB choice "optimizes the trade-off";
//   - replication: "a high degree of replication raises availability
//     ... at the expense of higher storage space requirements".

// ChunkSizePoint is one chunk-size ablation measurement: the Fig. 4
// point of our approach at that chunk size.
type ChunkSizePoint struct {
	ChunkSize int
	Fig4Point
}

// RunChunkSizeAblation deploys n instances under our approach for each
// chunk size and reports the boot metrics. Expect a U-shape in boot
// time: small chunks pay per-request overhead, large chunks transfer
// unused data and serialize concurrent readers (false sharing).
func RunChunkSizeAblation(p Params, n int, sizes []int) []ChunkSizePoint {
	out := make([]ChunkSizePoint, 0, len(sizes))
	for _, cs := range sizes {
		pc := p
		pc.ChunkSize = cs
		out = append(out, ChunkSizePoint{cs, runFig4Point(pc, n, OurApproach)})
	}
	return out
}

// ReplicationPoint is one replication-degree ablation measurement.
type ReplicationPoint struct {
	Replicas    int
	Completion  float64
	StorageGB   float64 // raw provider storage including replicas
	SurvivesOne bool    // all content readable after one provider loss
}

// RunReplicationAblation deploys n instances at each replication
// degree and probes fault tolerance by killing one provider after the
// deployment: with r = 1 some chunks become unreadable; with r ≥ 2
// everything survives, at r× the storage cost.
func RunReplicationAblation(p Params, n int, degrees []int) []ReplicationPoint {
	out := make([]ReplicationPoint, 0, len(degrees))
	for _, r := range degrees {
		pr := p
		pr.Replicas = r
		l := aggregatedLayout(max(pr.MaxInstances, n), n)
		env := newEnv(pr, l, OurApproach, blobvfs.WithFaultPlan(blobvfs.KillAt(0, l.pool[0])))
		point := ReplicationPoint{Replicas: r}
		env.Run(func(ctx *cluster.Ctx) { point.Completion = env.deploy(ctx).Completion })
		point.StorageGB = float64(env.Sys.Providers.StoredBytes()) * float64(r) / 1e9
		// Fault injection: kill provider 0 (the plan's event is due on
		// arming and fires at once), then try to read a window of the
		// image from a fresh client on another node. With a single
		// replica, chunks homed on the dead provider are lost.
		point.SurvivesOne = true
		probe := min(256, (pr.ImageSize+int64(pr.ChunkSize)-1)/int64(pr.ChunkSize)) // chunks, from the image's start
		env.Run(func(ctx *cluster.Ctx) {
			if err := env.Repo.ArmFaults(ctx); err != nil {
				panic(err)
			}
			done := ctx.Go("probe", env.Nodes[1%len(env.Nodes)], func(cc *cluster.Ctx) {
				c := blob.NewClient(env.Sys)
				if _, err := c.FetchChunks(cc, env.Base.Image, env.Base.Version, 0, probe); err != nil {
					point.SurvivesOne = false
				}
			})
			ctx.Wait(done)
		})
		out = append(out, point)
	}
	return out
}
