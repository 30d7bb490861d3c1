package experiments

import (
	"bytes"
	"fmt"
	"slices"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/sim"
)

// This file implements the sync scenario: the disconnected-site
// workflow (docs/sync.md) measured on the axis the differential
// export/import subsystem moves — bytes shipped per synchronization
// round. Two repositories live on one fabric but share no providers:
// the upstream accumulates a snapshot lineage under the §5.3 local-
// modification pattern, and after every commit a delta archive carries
// exactly the chunks the downstream lacks. The headline is the delta
// size against the full-image ship a naive mirror would repeat each
// round.

// SyncConfig parameterizes one sync run.
type SyncConfig struct {
	// Rounds is how many write→commit→export→import cycles follow the
	// initial full ship (default 4).
	Rounds int
	// Providers is the provider pool size per repository (default 4).
	Providers int
}

// SyncRound reports one shipped archive.
type SyncRound struct {
	Stage     string  // "full" or "delta N"
	Versions  int     // versions carried by the archive
	Chunks    int     // chunk payloads shipped
	ShippedMB float64 // logical payload+metadata bytes shipped
	FullMB    float64 // what a full-image ship would carry
	Reduction float64 // FullMB / ShippedMB
}

// SyncPoint reports one sync run.
type SyncPoint struct {
	Rounds    int
	Providers int
	ImageMB   float64

	FullMB     float64 // the initial full ship
	AvgDeltaMB float64 // mean delta round size
	Reduction  float64 // FullMB / AvgDeltaMB — the headline

	ShippedChunks int // total chunks shipped over all rounds

	PerRound []SyncRound
}

// RunSync deploys an upstream and a downstream repository on disjoint
// provider pools of one fabric, ships the base image as a full archive,
// then runs sc.Rounds modification→commit→delta-sync cycles (the churn
// scenario's write model: Params.SnapshotDiff per round, confined to
// the hot window, so rewrites land on the same spots), verifying
// after the last round that the downstream can read the newest version
// end to end.
func RunSync(p Params, sc SyncConfig) SyncPoint {
	if sc.Rounds <= 0 {
		sc.Rounds = 4
	}
	if sc.Providers <= 0 {
		sc.Providers = 4
	}

	fab := cluster.NewSim(cluster.DefaultConfig(2 * sc.Providers))
	upNodes, downNodes := nodeRange(0, sc.Providers), nodeRange(sc.Providers, sc.Providers)
	open := func(nodes []cluster.NodeID, uuid uint64) *blobvfs.Repo {
		r, err := blobvfs.Open(fab,
			blobvfs.WithProviders(nodes...),
			blobvfs.WithManager(nodes[0]),
			blobvfs.WithChunkSize(p.ChunkSize),
			blobvfs.WithSyncUUID(uuid))
		if err != nil {
			panic(err)
		}
		return r
	}
	up := open(upNodes, 1)
	down := open(downNodes, 2)

	pt := SyncPoint{
		Rounds:    sc.Rounds,
		Providers: sc.Providers,
		ImageMB:   float64(p.ImageSize) / (1 << 20),
	}
	record := func(stage string, est blobvfs.ExportStats) {
		r := SyncRound{
			Stage:     stage,
			Versions:  est.Versions,
			Chunks:    est.Chunks,
			ShippedMB: float64(est.DeltaBytes()) / (1 << 20),
			FullMB:    float64(est.FullBytes) / (1 << 20),
		}
		if r.ShippedMB > 0 {
			r.Reduction = r.FullMB / r.ShippedMB
		}
		pt.PerRound = append(pt.PerRound, r)
		pt.ShippedChunks += r.Chunks
	}

	wrRNG := sim.NewRNG(p.Seed + 11)
	fab.Run(func(ctx *cluster.Ctx) {
		base, err := up.CreateSynthetic(ctx, "image", p.ImageSize)
		if err != nil {
			panic(err)
		}

		var localID blobvfs.ImageID
		ship := func(stage string, from, to blobvfs.Version) {
			var buf bytes.Buffer
			est, err := up.Export(ctx, &buf, base.Image, from, to)
			if err != nil {
				panic(err)
			}
			ist, err := down.Import(ctx, &buf)
			if err != nil {
				panic(err)
			}
			localID = ist.Image
			record(stage, est)
		}
		ship("full", 0, base.Version)

		disk, err := up.OpenDisk(ctx, upNodes[0], base, blobvfs.Synthetic())
		if err != nil {
			panic(err)
		}
		cur := base.Version
		for round := 1; round <= sc.Rounds; round++ {
			if err := SnapshotWritesIn(ctx, disk, p.SnapshotDiff, int64(p.ChunkSize), p.hotWindow(), wrRNG.Fork()); err != nil {
				panic(err)
			}
			snap, err := disk.Commit(ctx)
			if err != nil {
				panic(err)
			}
			ship(fmt.Sprintf("delta %d", round), cur, snap.Version)
			cur = snap.Version
		}
		if err := disk.Close(ctx); err != nil {
			panic(err)
		}

		// End-to-end check: the downstream must be able to read the
		// newest imported version across the whole image.
		verify := ctx.Go("verify", downNodes[0], func(cc *cluster.Ctx) {
			ddisk, err := down.OpenDisk(cc, downNodes[0], blobvfs.Snapshot{Image: localID, Version: cur}, blobvfs.Synthetic())
			if err != nil {
				panic(err)
			}
			if err := ddisk.Read(cc, 0, ddisk.Size()); err != nil {
				panic(err)
			}
			if err := ddisk.Close(cc); err != nil {
				panic(err)
			}
		})
		ctx.WaitAll([]cluster.Task{verify})
	})

	pt.FullMB = pt.PerRound[0].ShippedMB
	var deltaSum float64
	for _, r := range pt.PerRound[1:] {
		deltaSum += r.ShippedMB
	}
	if sc.Rounds > 0 {
		pt.AvgDeltaMB = deltaSum / float64(sc.Rounds)
	}
	if pt.AvgDeltaMB > 0 {
		pt.Reduction = pt.PerRound[0].FullMB / pt.AvgDeltaMB
	}
	return pt
}

// SyncTable renders a sync run as a per-round shipping trace, closed
// by the average delta round when there was one.
func SyncTable(pt SyncPoint) *metrics.Table {
	rows := pt.PerRound
	if pt.Reduction > 0 {
		rows = append(slices.Clip(rows), SyncRound{Stage: "avg delta", Chunks: pt.ShippedChunks,
			ShippedMB: pt.AvgDeltaMB, FullMB: pt.FullMB, Reduction: pt.Reduction})
	}
	return table(fmt.Sprintf(
		"Differential sync: %.0f MB image, %d delta rounds, disjoint %d-provider pools",
		pt.ImageMB, pt.Rounds, pt.Providers), rows,
		col[SyncRound]{"stage", func(r SyncRound) string { return r.Stage }},
		col[SyncRound]{"versions", func(r SyncRound) string {
			if r.Versions == 0 {
				return "" // the average row: no archive of its own
			}
			return itoa(r.Versions)
		}},
		col[SyncRound]{"chunks shipped", func(r SyncRound) string { return itoa(r.Chunks) }},
		col[SyncRound]{"shipped (MB)", func(r SyncRound) string { return ftoa(r.ShippedMB) }},
		col[SyncRound]{"full ship (MB)", func(r SyncRound) string { return ftoa(r.FullMB) }},
		col[SyncRound]{"reduction", func(r SyncRound) string {
			if r.Stage == "full" || r.Reduction <= 0 {
				return ""
			}
			return fmt.Sprintf("%.1fx", r.Reduction)
		}},
	)
}
