package blob

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs/internal/cluster"
)

// Tests of the commit's single round trip to the version manager: the
// metadata put runs beside the chunk put, and Publish both appends the
// root and assigns its version.

// TestCommitIsOneManagerMutation: a commit is one mutating call to the
// version manager — one RPC to the active host and one journal append
// to each live standby. The manager's journal group sits alone in the
// second zone, so remote-tier bytes are exactly its share of a commit.
func TestCommitIsOneManagerMutation(t *testing.T) {
	cfg := cluster.DefaultConfig(8)
	cfg.Topology = cluster.Topology{Zones: 2, RacksPerZone: 1, NodesPerRack: 4,
		RackBandwidth: 1e9, ZoneBandwidth: 1e9}
	fab := cluster.NewSim(cfg)
	provs := []cluster.NodeID{0, 1, 2, 3}
	sys := &System{
		Meta:      NewMetaService(provs),
		VM:        NewVersionManager(4),
		Providers: NewProviderSet(provs, 1),
	}
	sys.VM.SetStandbys([]cluster.NodeID{5, 6})
	lv := cluster.NewLiveness(8)
	sys.VM.SetLiveness(lv)

	const (
		publish = 40 + 16 // Publish's request and response
		journal = 24 + 16 // one journal append
	)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, err := c.Create(ctx, 1<<20, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		commit := func(want Version) int64 {
			t.Helper()
			before := fab.TierTraffic(cluster.TierRemote)
			// Base 0 keeps Root out of the count; the geometry is cached
			// after the first commit.
			v, err := c.WriteChunks(ctx, id, 0, []ChunkWrite{{Index: 3, Payload: SyntheticPayload(64<<10, uint64(want))}})
			if err != nil {
				t.Fatal(err)
			}
			if v != want {
				t.Fatalf("commit published v%d, want v%d", v, want)
			}
			return fab.TierTraffic(cluster.TierRemote) - before
		}
		commit(1)
		if got, want := commit(2), int64(publish+2*journal); got != want {
			t.Fatalf("commit with two live standbys cost the manager group %d bytes, want %d (one publish, one append each)", got, want)
		}
		lv.Kill(ctx, 6)
		if got, want := commit(3), int64(publish+journal); got != want {
			t.Fatalf("commit with one live standby cost the manager group %d bytes, want %d", got, want)
		}
		lv.Kill(ctx, 4)
		if got, want := commit(4), int64(publish); got != want {
			t.Fatalf("commit served by the last live standby cost %d bytes, want %d", got, want)
		}
		if sys.VM.Failovers.Load() != 1 {
			t.Fatalf("failovers = %d, want 1", sys.VM.Failovers.Load())
		}
	})
}

// TestConcurrentCommitsTotallyOrdered: concurrent commits to one blob
// on the sim fabric, of different sizes so they finish out of start
// order, take versions 1..N once each, and every version reads back the
// bytes of the commit it was assigned to.
func TestConcurrentCommitsTotallyOrdered(t *testing.T) {
	const (
		nodes   = 8
		writers = 12
		chunk   = 16 << 10
		chunks  = 8
	)
	fab := cluster.NewSim(cluster.DefaultConfig(nodes))
	provs := make([]cluster.NodeID, nodes)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := NewSystem(provs, 0, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		id, err := NewClient(sys).Create(ctx, chunks*chunk, chunk)
		if err != nil {
			t.Fatal(err)
		}
		// Writer w overwrites chunks [0, w%chunks] of an empty base.
		want := make([][]byte, writers)
		got := make([]Version, writers)
		var tasks []cluster.Task
		for w := range writers {
			n := w%chunks + 1
			want[w] = make([]byte, chunks*chunk)
			writes := make([]ChunkWrite, n)
			for i := range writes {
				data := pattern(chunk, byte(16*w+i))
				copy(want[w][i*chunk:], data)
				writes[i] = ChunkWrite{Index: int64(i), Payload: RealPayload(data)}
			}
			tasks = append(tasks, ctx.Go("writer", cluster.NodeID(w%nodes), func(cc *cluster.Ctx) {
				v, err := NewClient(sys).WriteChunks(cc, id, 0, writes)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
				got[w] = v
			}))
		}
		ctx.WaitAll(tasks)

		owner := make(map[Version]int)
		inOrder := true
		for w, v := range got {
			if v < 1 || v > writers {
				t.Fatalf("writer %d got version %d, want 1..%d", w, v, writers)
			}
			if prev, dup := owner[v]; dup {
				t.Fatalf("writers %d and %d both got version %d", prev, w, v)
			}
			owner[v] = w
			inOrder = inOrder && v == Version(w+1)
		}
		if inOrder {
			t.Fatal("commits published in start order; the test does not exercise reordering")
		}
		if pub := sys.VM.Published(id); pub != writers {
			t.Fatalf("published = %d, want %d", pub, writers)
		}
		c := NewClient(sys)
		buf := make([]byte, chunks*chunk)
		for v := Version(1); v <= writers; v++ {
			if err := c.ReadAt(ctx, id, v, buf, 0); err != nil {
				t.Fatalf("read v%d: %v", v, err)
			}
			if !bytes.Equal(buf, want[owner[v]]) {
				t.Fatalf("v%d does not read back writer %d's commit", v, owner[v])
			}
		}
	})
}

// TestFailedChunkPutLeavesNoVersion: the metadata of a commit is stored
// before its chunk put is known to have succeeded. When the put fails,
// the commit returns the typed error, no version appears, no pending
// mark survives, and one collection frees exactly the orphaned tree
// nodes.
func TestFailedChunkPutLeavesNoVersion(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	// Chunks live on node 3 alone, so killing it fails every chunk put;
	// the metadata tier on nodes 1 and 2 stays up.
	sys := &System{
		Meta:      NewMetaService([]cluster.NodeID{1, 2}),
		VM:        NewVersionManager(0),
		Providers: NewProviderSet([]cluster.NodeID{3}, 1),
	}
	lv := cluster.NewLiveness(4)
	sys.Providers.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, err := c.Create(ctx, 800, 100)
		if err != nil {
			t.Fatal(err)
		}
		base := pattern(800, 5)
		v1, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		liveNodes := sys.Meta.NodeCount()

		lv.Kill(ctx, 3)
		_, err = c.WriteChunks(ctx, id, v1, []ChunkWrite{{Index: 2, Payload: RealPayload(pattern(100, 9))}})
		if !errors.Is(err, ErrNoReplica) {
			t.Fatalf("commit with its chunk provider down: err = %v, want ErrNoReplica", err)
		}
		if pub := sys.VM.Published(id); pub != int(v1) {
			t.Fatalf("published = %d after the failed commit, want %d", pub, v1)
		}
		if _, pending := sys.Meta.PendingSnapshot(); pending.Len() != 0 {
			t.Fatalf("%d tree refs still pending after the failed commit", pending.Len())
		}
		if _, pending := sys.Providers.PendingSnapshot(); pending.Len() != 0 {
			t.Fatalf("%d chunk keys still pending after the failed commit", pending.Len())
		}
		orphans := sys.Meta.NodeCount() - liveNodes
		if orphans == 0 {
			t.Fatal("the failed commit stored no tree nodes; the test does not exercise the window")
		}

		rep, err := NewCollector(sys, nil).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedNodes != orphans || rep.MarkedNodes != liveNodes {
			t.Fatalf("GC freed %d nodes and marked %d, want %d orphans freed and %d marked", rep.FreedNodes, rep.MarkedNodes, orphans, liveNodes)
		}
		if rep.FreedChunks != 0 {
			t.Fatalf("GC released %d chunks, want 0", rep.FreedChunks)
		}

		lv.Revive(ctx, 3)
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, id, v1, got, 0); err != nil {
			t.Fatalf("read of v%d after GC: %v", v1, err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("v%d corrupted by the collection", v1)
		}
		if v, err := c.WriteChunks(ctx, id, v1, []ChunkWrite{{Index: 2, Payload: RealPayload(pattern(100, 9))}}); err != nil || v != v1+1 {
			t.Fatalf("retried commit: (v%d, %v), want v%d", v, err, v1+1)
		}
	})
}
