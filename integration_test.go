package blobvfs_test

import (
	"testing"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/mirror"
)

// lifecycleCounters samples everything the figure scenarios measure:
// virtual time, network traffic, and the service-side counters.
type lifecycleCounters struct {
	Now        float64
	Traffic    int64
	ProvReads  int64
	ProvWrites int64
	MetaGets   int64
	MetaNodes  int64
	Chunks     int
	Reclaimed  int64
	FreedNodes int64
}

func sampleCounters(fab *cluster.Sim, sys *blob.System) lifecycleCounters {
	return lifecycleCounters{
		Now:        fab.Now(),
		Traffic:    fab.NetTraffic(),
		ProvReads:  sys.Providers.Reads.Load(),
		ProvWrites: sys.Providers.Writes.Load(),
		MetaGets:   sys.Meta.Gets.Load(),
		MetaNodes:  sys.Meta.NodesServed.Load(),
		Chunks:     sys.Providers.ChunkCount(),
		Reclaimed:  sys.Providers.Freed.Load(),
		FreedNodes: sys.Meta.Freed.Load(),
	}
}

const (
	lcNodes     = 4        // compute nodes, one instance each
	lcImageSize = 64 << 20 // synthetic base image
	lcChunk     = 256 << 10
	lcCycles    = 3 // write→commit rounds per instance
	lcKeep      = 1 // retention window
)

// runLifecycleFacade drives create → deploy-on-N-nodes → write →
// commit → clone → retire → GC purely through the blobvfs façade.
func runLifecycleFacade(t *testing.T) lifecycleCounters {
	t.Helper()
	fab := cluster.NewSim(cluster.DefaultConfig(lcNodes + 1))
	provs := make([]blobvfs.NodeID, lcNodes)
	for i := range provs {
		provs[i] = blobvfs.NodeID(i)
	}
	repo, err := blobvfs.Open(fab,
		blobvfs.WithProviders(provs...),
		blobvfs.WithManager(blobvfs.NodeID(lcNodes)),
		blobvfs.WithChunkSize(lcChunk))
	if err != nil {
		t.Fatal(err)
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		base, err := repo.CreateSynthetic(ctx, "base", lcImageSize)
		if err != nil {
			t.Fatal(err)
		}
		var tasks []blobvfs.Task
		for n := 0; n < lcNodes; n++ {
			node := blobvfs.NodeID(n)
			tasks = append(tasks, ctx.Go("vm", node, func(cc *blobvfs.Ctx) {
				disk, err := repo.OpenDisk(cc, node, base, blobvfs.Synthetic())
				if err != nil {
					t.Error(err)
					return
				}
				// Boot-ish read of the image head, then churn cycles:
				// rewrite the same hot region, snapshot, retire, so old
				// versions accumulate exclusive garbage.
				if err := disk.Read(cc, 0, 8<<20); err != nil {
					t.Error(err)
					return
				}
				for cyc := 0; cyc < lcCycles; cyc++ {
					if err := disk.Write(cc, 0, 2<<20); err != nil {
						t.Error(err)
						return
					}
					if _, err := repo.Snapshot(cc, disk, disk.Image() == base.Image); err != nil {
						t.Error(err)
						return
					}
					if disk.Image() != base.Image {
						if _, err := repo.RetireOld(cc, disk, lcKeep); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if err := disk.Close(cc); err != nil {
					t.Error(err)
				}
			}))
		}
		ctx.WaitAll(tasks)
		if _, err := repo.GC(ctx); err != nil {
			t.Error(err)
		}
	})
	return sampleCounters(fab, repo.System())
}

// runLifecycleDirect is the same scenario hand-wired over the internal
// layers, exactly as callers did before the façade existed.
func runLifecycleDirect(t *testing.T) lifecycleCounters {
	t.Helper()
	fab := cluster.NewSim(cluster.DefaultConfig(lcNodes + 1))
	provs := make([]cluster.NodeID, lcNodes)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := blob.NewSystem(provs, cluster.NodeID(lcNodes), 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		baseID, err := c.Create(ctx, lcImageSize, lcChunk)
		if err != nil {
			t.Fatal(err)
		}
		baseV, err := c.WriteFull(ctx, baseID, 0, uint64(baseID))
		if err != nil {
			t.Fatal(err)
		}
		var tasks []cluster.Task
		for n := 0; n < lcNodes; n++ {
			node := cluster.NodeID(n)
			tasks = append(tasks, ctx.Go("vm", node, func(cc *cluster.Ctx) {
				mod := mirror.NewModule(node, blob.NewClient(sys))
				im, err := mod.Open(cc, baseID, baseV, false)
				if err != nil {
					t.Error(err)
					return
				}
				if err := im.Read(cc, 0, 8<<20); err != nil {
					t.Error(err)
					return
				}
				for cyc := 0; cyc < lcCycles; cyc++ {
					if err := im.Write(cc, 0, 2<<20); err != nil {
						t.Error(err)
						return
					}
					if im.BlobID() == baseID {
						if err := im.Clone(cc); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := im.Commit(cc); err != nil {
						t.Error(err)
						return
					}
					if im.BlobID() != baseID {
						if upTo := im.Version() - lcKeep; upTo >= 1 {
							if _, err := sys.VM.RetireUpTo(cc, im.BlobID(), upTo); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}
				im.Close(cc)
			}))
		}
		ctx.WaitAll(tasks)
		if _, err := blob.NewCollector(sys, nil).Collect(ctx); err != nil {
			t.Error(err)
		}
	})
	return sampleCounters(fab, sys)
}

// TestFacadeMatchesDirectWiring proves the façade adds no hidden cost:
// the full image lifecycle driven through blobvfs produces exactly the
// counters of the hand-wired internal path — same virtual time, same
// traffic, same provider/metadata operation counts, same reclamation.
func TestFacadeMatchesDirectWiring(t *testing.T) {
	facade := runLifecycleFacade(t)
	direct := runLifecycleDirect(t)
	if facade != direct {
		t.Fatalf("façade lifecycle diverges from direct wiring:\n  facade: %+v\n  direct: %+v", facade, direct)
	}
	// Sanity: the scenario actually exercised every phase.
	if facade.Reclaimed == 0 || facade.FreedNodes == 0 {
		t.Fatalf("scenario reclaimed nothing: %+v", facade)
	}
	if facade.ProvReads == 0 || facade.MetaGets == 0 {
		t.Fatalf("scenario fetched nothing: %+v", facade)
	}
}

// TestOpenWaveWalksOnce: disks opened on one snapshot at once share
// one host-side walk of its chunk map, and each still pays a full
// descent, so a wave of opens costs its size times one lone open's
// metadata gets and nodes. Opens one after another each walk: no walk
// outlives the opens that replay it.
func TestOpenWaveWalksOnce(t *testing.T) {
	const wave = 8
	const lone, first = blobvfs.NodeID(5), 6 // instance nodes; 0–3 provide, 4 manages
	fab := cluster.NewSim(cluster.DefaultConfig(first + 2*wave))
	repo, err := blobvfs.Open(fab,
		blobvfs.WithProviders(0, 1, 2, 3),
		blobvfs.WithManager(4),
		blobvfs.WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	meta := repo.System().Meta
	fab.Run(func(ctx *blobvfs.Ctx) {
		base, err := repo.CreateSynthetic(ctx, "base", 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		openAll := func(nodes ...blobvfs.NodeID) {
			var tasks []blobvfs.Task
			for _, node := range nodes {
				tasks = append(tasks, ctx.Go("vm", node, func(cc *blobvfs.Ctx) {
					if _, err := repo.OpenDisk(cc, node, base, blobvfs.Synthetic()); err != nil {
						t.Error(err)
					}
				}))
			}
			ctx.WaitAll(tasks)
		}
		walks, gets, served := repo.Stats().ChunkMapWalks, meta.Gets.Load(), meta.NodesServed.Load()
		openAll(lone)
		oneGets, oneServed := meta.Gets.Load()-gets, meta.NodesServed.Load()-served
		if w := repo.Stats().ChunkMapWalks - walks; w != 1 || oneServed == 0 {
			t.Fatalf("a lone open walked %d times and was served %d nodes", w, oneServed)
		}

		var nodes []blobvfs.NodeID
		for i := range wave {
			nodes = append(nodes, blobvfs.NodeID(first+i))
		}
		walks, gets, served = repo.Stats().ChunkMapWalks, meta.Gets.Load(), meta.NodesServed.Load()
		openAll(nodes...)
		if w := repo.Stats().ChunkMapWalks - walks; w != 1 {
			t.Fatalf("a wave of %d opens walked %d times, want 1", wave, w)
		}
		if g, s := meta.Gets.Load()-gets, meta.NodesServed.Load()-served; g != wave*oneGets || s != wave*oneServed {
			t.Fatalf("a wave of %d opens cost %d gets and %d nodes, want %d × (%d, %d)", wave, g, s, wave, oneGets, oneServed)
		}

		walks = repo.Stats().ChunkMapWalks
		for i := range wave {
			openAll(blobvfs.NodeID(first + wave + i))
		}
		if w := repo.Stats().ChunkMapWalks - walks; w != wave {
			t.Fatalf("%d opens one after another walked %d times, want %d", wave, w, wave)
		}
	})
}
