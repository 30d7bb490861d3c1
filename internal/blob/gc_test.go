package blob

import (
	"errors"
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// TestRetireUnpublishesFromLatest: a retired version disappears from
// Latest and Root immediately, and Latest falls back to the newest
// surviving version.
func TestRetireUnpublishesFromLatest(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(400, 1), 0)
		v2, err := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.VM.Retire(ctx, id, v2); err != nil {
			t.Fatalf("Retire(v2): %v", err)
		}
		if latest, _ := c.Latest(ctx, id); latest != v1 {
			t.Fatalf("Latest after retiring v2 = %d, want %d", latest, v1)
		}
		if _, err := sys.VM.Root(ctx, id, v2); err == nil {
			t.Fatal("Root of retired version resolved")
		}
		if err := sys.VM.Retire(ctx, id, v2); !errors.Is(err, ErrVersionRetired) {
			t.Fatalf("double Retire = %v, want ErrVersionRetired", err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		if latest, _ := c.Latest(ctx, id); latest != 0 {
			t.Fatalf("Latest with all versions retired = %d, want 0", latest)
		}
		// A write on an empty Latest builds over an empty tree again.
		v3, err := c.WriteAt(ctx, id, 0, pattern(400, 3), 0)
		if err != nil {
			t.Fatal(err)
		}
		if latest, _ := c.Latest(ctx, id); latest != v3 {
			t.Fatalf("Latest after fresh write = %d, want %d", latest, v3)
		}
	})
}

// TestRetirePinnedFails: a pinned version refuses to retire and
// RetireUpTo skips it; after unpinning it retires normally.
func TestRetirePinnedFails(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(400, 1), 0)
		v2, _ := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		if err := c.PinVersion(id, v1); err != nil {
			t.Fatal(err)
		}
		var pinned *PinnedError
		if err := sys.VM.Retire(ctx, id, v1); !errors.As(err, &pinned) {
			t.Fatalf("Retire of pinned = %v, want PinnedError", err)
		}
		if n, _ := sys.VM.RetireUpTo(ctx, id, v2); n != 1 {
			t.Fatalf("RetireUpTo retired %d versions, want 1 (v2 only)", n)
		}
		if latest, _ := c.Latest(ctx, id); latest != v1 {
			t.Fatalf("Latest = %d, want pinned %d", latest, v1)
		}
		c.UnpinVersion(id, v1)
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatalf("Retire after unpin: %v", err)
		}
		// Pinning a retired version must fail: it may already be swept.
		if err := c.PinVersion(id, v1); err == nil {
			t.Fatal("Pin of retired version succeeded")
		}
	})
}

// TestGCReclaimsRetiredVersions: after retiring the old version of a
// two-version blob, exactly the chunks it held exclusively (those the
// newer version overwrote) and its exclusive tree nodes are freed, and
// the surviving version reads back intact.
func TestGCReclaimsRetiredVersions(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 800, 100) // 8 chunks
		base := pattern(800, 1)
		v1, _ := c.WriteAt(ctx, id, 0, base, 0)
		patch := pattern(200, 9) // overwrites chunks 2 and 3
		v2, err := c.WriteAt(ctx, id, v1, patch, 200)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Providers.ChunkCount(); got != 10 {
			t.Fatalf("chunks before GC = %d, want 10", got)
		}

		gc := NewCollector(sys)
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 0 || rep.FreedNodes != 0 {
			t.Fatalf("GC with all versions live freed %+v, want nothing", rep)
		}

		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		rep, err = gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 2 {
			t.Fatalf("FreedChunks = %d, want 2 (the overwritten originals)", rep.FreedChunks)
		}
		if rep.FreedNodes == 0 {
			t.Fatal("no tree nodes freed for the retired version")
		}
		if got := sys.Providers.ChunkCount(); got != 8 {
			t.Fatalf("chunks after GC = %d, want 8", got)
		}
		want := append([]byte(nil), base...)
		copy(want[200:], patch)
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, id, v2, got, 0); err != nil {
			t.Fatalf("read of surviving version: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("surviving version corrupted at byte %d", i)
			}
		}
	})
}

// TestGCKeepsClonedShares: retiring the clone source must not free
// anything the clone still shares — only the source's root node, which
// the clone copied rather than referenced, becomes unreachable.
func TestGCKeepsClonedShares(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 800, 100)
		base := pattern(800, 4)
		v1, _ := c.WriteAt(ctx, id, 0, base, 0)
		clone, err := c.Clone(ctx, id, v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		gc := NewCollector(sys)
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 0 {
			t.Fatalf("FreedChunks = %d, want 0 (all shared with the clone)", rep.FreedChunks)
		}
		if rep.FreedNodes != 1 {
			t.Fatalf("FreedNodes = %d, want 1 (the source root)", rep.FreedNodes)
		}
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, clone, 1, got, 0); err != nil {
			t.Fatalf("clone read after source retirement: %v", err)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("clone corrupted at byte %d", i)
			}
		}
	})
}

// TestReleaseIdempotent: releasing the same key twice is a no-op the
// second time, and the first one frees the payload.
func TestReleaseIdempotent(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		key := sys.Providers.AllocPending(1)
		if err := putOne(ctx, sys.Providers, key, RealPayload(pattern(100, 1))); err != nil {
			t.Fatal(err)
		}
		if _, ok := sys.Providers.Peek(key); !ok {
			t.Fatal("stored key not found")
		}
		released, bytes := sys.Providers.Release(ctx, []ChunkKey{key})
		if len(released) != 1 || bytes != 100 {
			t.Fatalf("Release = (%v, %d), want 1 key, 100 bytes", released, bytes)
		}
		if _, ok := sys.Providers.Peek(key); ok {
			t.Fatal("released key still stored")
		}
		released, bytes = sys.Providers.Release(ctx, []ChunkKey{key})
		if len(released) != 0 || bytes != 0 {
			t.Fatalf("second Release = (%v, %d), want no-op", released, bytes)
		}
	})
}

// TestCollectorSkipsOverlappingCycle: the second of two overlapping
// Collect calls reports Skipped instead of blocking or double-freeing.
func TestCollectorSkipsOverlappingCycle(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	gc := NewCollector(sys)
	gc.running.Store(true) // simulate a cycle in progress
	fab.Run(func(ctx *cluster.Ctx) {
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Skipped {
			t.Fatal("overlapping Collect did not skip")
		}
	})
	gc.running.Store(false)
}

// peekGetter reads tree nodes straight out of the metadata store, at
// no cost: what the recursive reference walker marks through.
type peekGetter struct{ m *MetaService }

func (g peekGetter) GetNode(ref NodeRef) (TreeNode, error) {
	n, ok := g.m.peek(ref)
	if !ok {
		return TreeNode{}, notFound("metadata node", ref)
	}
	return n, nil
}

// TestGCMarkRounds: the mark phase descends every live root as one
// frontier, so a cycle pays a batched round per tree level — at most
// depth × providers service operations — while serving each marked
// node exactly once; and it marks and frees exactly what the
// recursive reference walker computes. (When the mark phase read one
// node per RPC, Gets rose by MarkedNodes.)
func TestGCMarkRounds(t *testing.T) {
	const (
		providers = 8
		chunkSize = 256 << 10
		chunks    = 8192 // a 2 GiB base
		levels    = 14   // log2(8192) inner levels plus the leaves
		snapshots = 20
		dirty     = 48
	)
	fab := cluster.NewSim(cluster.DefaultConfig(providers + 1))
	provs := make([]cluster.NodeID, providers)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	sys := NewSystem(provs, 0, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		base, err := c.Create(ctx, chunks*chunkSize, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		writes := make([]ChunkWrite, chunks)
		for i := range writes {
			writes[i] = ChunkWrite{Index: int64(i), Payload: SyntheticPayload(chunkSize, 0)}
		}
		v1, err := c.WriteChunks(ctx, base, 0, writes)
		if err != nil {
			t.Fatal(err)
		}
		// Every snapshot is a clone of the base with its own scattered
		// diff, as instances of one image produce them; a few get a
		// second version. Retiring some makes their diffs garbage.
		rng := sim.NewRNG(17)
		for s := 0; s < snapshots; s++ {
			id, err := c.Clone(ctx, base, v1)
			if err != nil {
				t.Fatal(err)
			}
			v := Version(1)
			for round := 0; round <= s%2; round++ {
				diff := make([]ChunkWrite, dirty)
				for k, ci := range rng.Perm(chunks)[:dirty] {
					diff[k] = ChunkWrite{Index: int64(ci), Payload: SyntheticPayload(chunkSize, 0)}
				}
				if v, err = c.WriteChunks(ctx, id, v, diff); err != nil {
					t.Fatal(err)
				}
			}
			if s%5 == 4 {
				if _, err := sys.VM.RetireUpTo(ctx, id, v); err != nil {
					t.Fatal(err)
				}
			}
		}

		// What the reference marks, walking root after root.
		roots := sys.VM.LiveRoots(ctx)
		if len(roots) < 17 {
			t.Fatalf("%d live roots, want the base and at least 16 snapshots", len(roots))
		}
		wantNodes := make(map[NodeRef]bool)
		wantChunks := make(map[ChunkKey]bool)
		for _, lr := range roots {
			err := referenceWalkReachable(peekGetter{sys.Meta}, lr.Root, lr.Span,
				func(ref NodeRef) bool {
					if wantNodes[ref] {
						return false
					}
					wantNodes[ref] = true
					return true
				},
				func(key ChunkKey) { wantChunks[key] = true })
			if err != nil {
				t.Fatal(err)
			}
		}
		wantFreed := 0
		keyWM, _ := sys.Providers.PendingSnapshot()
		for _, key := range sys.Providers.RetainedKeys(keyWM) {
			if !wantChunks[key] {
				wantFreed++
			}
		}
		if wantFreed == 0 {
			t.Fatal("the retired snapshots left no garbage; the test would not see a wrong sweep")
		}

		gets0, served0 := sys.Meta.Gets.Load(), sys.Meta.NodesServed.Load()
		rep, err := NewCollector(sys).Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gets, served := sys.Meta.Gets.Load()-gets0, sys.Meta.NodesServed.Load()-served0
		if gets > levels*providers {
			t.Errorf("mark paid %d metadata operations for %d nodes, want at most %d levels × %d providers",
				gets, rep.MarkedNodes, levels, providers)
		}
		if served != int64(rep.MarkedNodes) {
			t.Errorf("mark was served %d nodes for %d marked", served, rep.MarkedNodes)
		}
		if rep.MarkedNodes != len(wantNodes) || rep.MarkedChunks != len(wantChunks) {
			t.Errorf("marked %d nodes and %d chunks, reference %d and %d",
				rep.MarkedNodes, rep.MarkedChunks, len(wantNodes), len(wantChunks))
		}
		if rep.FreedChunks != int64(wantFreed) {
			t.Errorf("freed %d chunks, reference %d", rep.FreedChunks, wantFreed)
		}
	})
}
