package blob

import (
	"bytes"
	"errors"
	"slices"
	"strings"
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

// TestVersionCheckCatchesEachBrokenInvariant: VersionManager.check
// passes on intact records (pinned, retired and live versions of an
// image, and a clone) and names each seeded breakage of one of its
// clauses.
func TestVersionCheckCatchesEachBrokenInvariant(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	var id ID
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ = c.Create(ctx, 400, 100)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(400, 1), 0)
		v2, _ := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		c.WriteAt(ctx, id, v2, pattern(100, 3), 100)
		if _, err := c.Clone(ctx, id, v2); err != nil {
			t.Fatal(err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		if err := c.PinVersion(id, v2); err != nil {
			t.Fatal(err)
		}
	})
	vm := sys.VM
	if err := vm.check(); err != nil {
		t.Fatalf("intact records: %v", err)
	}
	vs := vm.blobs[id].versions
	if len(vs) != 3 || !vs[0].retired || vs[1].pins != 1 {
		t.Fatalf("records %+v: want v1 retired, v2 pinned once, v3 live", vs)
	}
	saved := slices.Clone(vs)
	for _, tc := range []struct {
		name, want string
		mutate     func()
	}{
		{"retired while pinned", "retired while pinned", func() { vs[1].retired = true }},
		{"negative pin count", "-1 pins", func() { vs[2].pins = -1 }},
		{"live version without a root", "no root", func() { vs[2].root = 0 }},
	} {
		copy(vs, saved)
		tc.mutate()
		if err := vm.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
	copy(vs, saved)
	if err := vm.check(); err != nil {
		t.Fatalf("restored records: %v", err)
	}
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

		gc := NewCollector(sys, nil)
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

// collectingSharer runs one collection at Announce: the point of a
// commit after its chunk and tree-node puts and before its Publish,
// where every key and ref the commit wrote is stored, reachable from
// no root, and kept only by its pending range. The commit path calls
// nothing else of a sharer.
type collectingSharer struct {
	ChunkSharer
	gc  *Collector
	rep GCReport
	err error
}

func (s *collectingSharer) Announce(ctx *cluster.Ctx, _ []ChunkKey) {
	s.rep, s.err = s.gc.Collect(ctx)
}

// TestCollectBeforePublishSparesTheWrite: a collection that runs
// between a commit's puts and its Publish frees the garbage of a
// retired version but none of the commit's chunk keys or tree-node
// refs, on either tier; the version then reads back intact.
func TestCollectBeforePublishSparesTheWrite(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 800, 100) // 8 chunks
		want := pattern(800, 1)
		v1, _ := c.WriteAt(ctx, id, 0, want, 0)
		v2, err := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		copy(want, pattern(100, 2))
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}

		sharer := &collectingSharer{gc: NewCollector(sys, nil)}
		c.SetSharer(sharer)
		refWM, _ := sys.Meta.PendingSnapshot()
		writes := []ChunkWrite{
			{Index: 2, Payload: RealPayload(pattern(100, 3))},
			{Index: 5, Payload: RealPayload(pattern(100, 4))},
			{Index: 6, Payload: RealPayload(pattern(100, 5))},
		}
		v3, keyOf, err := c.WriteChunksKeyed(ctx, id, v2, writes)
		c.SetSharer(nil)
		if err != nil || sharer.err != nil {
			t.Fatalf("commit: %v; collection inside it: %v", err, sharer.err)
		}
		for _, w := range writes {
			copy(want[w.Index*100:], w.Payload.Data)
		}
		if rep := sharer.rep; rep.FreedChunks != 1 || rep.FreedNodes == 0 {
			t.Errorf("collection freed %d chunks and %d nodes, want v1's overwritten chunk and its path nodes", rep.FreedChunks, rep.FreedNodes)
		}
		for idx, key := range keyOf {
			if _, ok := sys.Providers.Peek(key); !ok {
				t.Errorf("chunk %d's key %d was freed before its version published", idx, key)
			}
		}
		newWM, _ := sys.Meta.PendingSnapshot()
		if newWM == refWM {
			t.Fatal("the commit allocated no tree refs")
		}
		for ref := refWM + 1; ref <= newWM; ref++ {
			if _, ok := sys.Meta.Peek(ref); !ok {
				t.Errorf("tree ref %d was freed before its version published", ref)
			}
		}
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, id, v3, got, 0); err != nil {
			t.Fatalf("read of v%d: %v", v3, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d reads back wrong", v3)
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
		gc := NewCollector(sys, nil)
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

// TestReleaseIdempotent: a sweep frees a dead key once, and a second
// sweep with the same live set frees nothing and charges nothing.
func TestReleaseIdempotent(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(3))
	ps := NewProviderSet([]cluster.NodeID{1, 2}, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		dead, kept := ps.AllocPending(1), ps.AllocPending(1)
		for _, key := range []ChunkKey{dead, kept} {
			if err := putOne(ctx, ps, key, RealPayload(pattern(100, 1))); err != nil {
				t.Fatal(err)
			}
			ps.ClearPending(key)
		}
		live := map[ChunkKey]bool{kept: true}
		wm, pending := ps.PendingSnapshot()
		if freed, bytes := ps.Sweep(ctx, wm, live, pending, 24); !slices.Equal(freed, []ChunkKey{dead}) || bytes != 100 {
			t.Fatalf("Sweep = (%v, %d), want key %d and 100 bytes", freed, bytes, dead)
		}
		if _, ok := ps.Peek(dead); ok {
			t.Fatal("swept key still stored")
		}
		before := fab.NetTraffic()
		if freed, bytes := ps.Sweep(ctx, wm, live, pending, 24); freed != nil || bytes != 0 || fab.NetTraffic() != before {
			t.Fatalf("second Sweep = (%v, %d) moving %d bytes, want a no-op", freed, bytes, fab.NetTraffic()-before)
		}
		if n, b := ps.Freed.Load(), ps.FreedBytes.Load(); n != 1 || b != 100 {
			t.Fatalf("Freed = %d, FreedBytes = %d; want the one key's 100 bytes", n, b)
		}
	})
}

// TestCollectorSkipsOverlappingCycle: the second of two overlapping
// Collect calls reports Skipped instead of blocking or double-freeing.
func TestCollectorSkipsOverlappingCycle(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	gc := NewCollector(sys, nil)
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
	n, ok := g.m.Peek(ref)
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
		rep, err := NewCollector(sys, nil).Collect(ctx)
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

// reclaimRecorder is a ReclaimListener that keeps every batch of keys
// it is handed.
type reclaimRecorder struct{ batches [][]ChunkKey }

func (r *reclaimRecorder) ChunksReclaimed(_ *cluster.Ctx, keys []ChunkKey) {
	r.batches = append(r.batches, slices.Clone(keys))
}

// TestReclaimOrderIsKeyOrder: the collector's candidates come in key
// order, and so do the keys it hands the reclaim listener, whose
// cohorts settle each key's in-flight fetches in the order given. Each
// of several cycles overwrites 20 chunks, retires the version before
// and frees the 20 chunks it held.
func TestReclaimOrderIsKeyOrder(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		rec := &reclaimRecorder{}
		gc := NewCollector(sys, rec)
		id, _ := c.Create(ctx, 6400, 100) // 64 chunks
		v, err := c.WriteAt(ctx, id, 0, pattern(6400, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 4
		for cycle := range cycles {
			next, err := c.WriteAt(ctx, id, v, pattern(2000, byte(cycle+2)), 1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Retire(ctx, id, v); err != nil {
				t.Fatal(err)
			}
			v = next
			if keys := sys.Providers.RetainedKeys(^ChunkKey(0)); !slices.IsSorted(keys) {
				t.Fatalf("cycle %d: RetainedKeys not in key order: %v", cycle, keys)
			}
			if rep, err := gc.Collect(ctx); err != nil || rep.FreedChunks != 20 {
				t.Fatalf("cycle %d: freed %d chunks (%v), want 20", cycle, rep.FreedChunks, err)
			}
		}
		if len(rec.batches) != cycles {
			t.Fatalf("listener called %d times, want %d", len(rec.batches), cycles)
		}
		for i, keys := range rec.batches {
			if !slices.IsSorted(keys) {
				t.Fatalf("cycle %d: listener handed keys out of key order: %v", i, keys)
			}
		}
	})
}

// TestReleaseChargesTheHolders: a collection's sweep charges a freed
// key's deletion to the live nodes holding it, on either tier at
// degree 2: both holders when a ring member was down at the put (its
// other member and a substitute), the survivor when the ring's home
// died after it.
func TestReleaseChargesTheHolders(t *testing.T) {
	nodes := []cluster.NodeID{1, 2, 3, 4}
	for _, c := range []struct {
		name      string
		deadAtPut bool
		holders   int64
	}{{"dead-at-put", true, 2}, {"home-died-after", false, 1}} {
		t.Run("chunks/"+c.name, func(t *testing.T) {
			ps := NewProviderSet(nodes, 2)
			sweepCharges(t, &ps.replicaSet, 24, c.deadAtPut, c.holders, func(ctx *cluster.Ctx, key ChunkKey) error {
				return putOne(ctx, ps, key, SyntheticPayload(4096, 1))
			})
		})
		t.Run("metadata/"+c.name, func(t *testing.T) {
			m := NewMetaService(nodes)
			m.SetReplication(2)
			sweepCharges(t, &m.replicaSet, 16, c.deadAtPut, c.holders, func(ctx *cluster.Ctx, ref NodeRef) error {
				m.PutBatch(ctx, []NewNode{{Ref: ref, Node: TreeNode{Lo: 0, Hi: 1, Chunk: 1}}})
				return nil
			})
		})
	}
}

// sweepCharges puts one key whose home dies before or after the put,
// then sweeps it from node 0, outside the pool. Node 0 shares its rack
// only with node 1 and the dying home; the holders sit across the
// zone, so rack-tier bytes would be a charge to the dead home.
func sweepCharges[K ~uint64, V any](t *testing.T, rs *replicaSet[K, V], req int64, deadAtPut bool, holders int64, put func(*cluster.Ctx, K) error) {
	cfg := cluster.DefaultConfig(6)
	topo := cluster.Topology{Zones: 2, RacksPerZone: 1, NodesPerRack: 3, RackBandwidth: 1e9, ZoneBandwidth: 1e9}
	cfg.Topology = topo
	fab := cluster.NewSim(cfg)
	lv := cluster.NewLiveness(6) // no listeners: no repair sweep runs
	rs.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		key := rs.AllocPending(1)
		home := rs.Replicas(key)[0]
		if deadAtPut {
			lv.Kill(ctx, home)
		}
		if err := put(ctx, key); err != nil {
			t.Fatal(err)
		}
		if !deadAtPut {
			lv.Kill(ctx, home)
		}
		held := rs.LiveLocations(key)
		near := func(n cluster.NodeID) bool { return topo.Tier(0, n) != cluster.TierRemote }
		if int64(len(held)) != holders || topo.Tier(0, home) != cluster.TierRack || slices.ContainsFunc(held, near) {
			t.Fatalf("key held by %v, home %d; want %d holders across the zone and the home in node 0's rack", held, home, holders)
		}
		rack, remote := fab.TierTraffic(cluster.TierRack), fab.TierTraffic(cluster.TierRemote)
		if freed, _ := rs.Sweep(ctx, key, nil, PendingSet[K]{}, req); len(freed) != 1 {
			t.Fatalf("swept %v, want the key", freed)
		}
		if got, want := fab.TierTraffic(cluster.TierRemote)-remote, holders*(req+16); got != want {
			t.Errorf("sweep moved %d bytes to the holders, want %d: one deletion RPC to each", got, want)
		}
		if got := fab.TierTraffic(cluster.TierRack) - rack; got != 0 {
			t.Errorf("sweep moved %d bytes to the dead home's rack, want none", got)
		}
	})
	if err := rs.check(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroSizeChunkIsARecord: a chunk of no bytes (Import stores one
// for an archive's 0-byte chunk record) is a stored record like any
// other: Peek finds it, ChunkCount counts it, and a collection frees it.
func TestZeroSizeChunkIsARecord(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		ps := sys.Providers
		key := ps.AllocPending(1)
		if err := putOne(ctx, ps, key, RealPayload([]byte{})); err != nil {
			t.Fatal(err)
		}
		ps.ClearPending(key)
		if p, ok := ps.Peek(key); !ok || p.Size != 0 {
			t.Fatalf("Peek = %+v, %v; want the 0-byte chunk", p, ok)
		}
		if n := ps.ChunkCount(); n != 1 {
			t.Fatalf("ChunkCount = %d, want 1", n)
		}
		rep, err := NewCollector(sys, nil).Collect(ctx)
		if err != nil || rep.FreedChunks != 1 || rep.FreedBytes != 0 {
			t.Fatalf("collection freed %d chunks, %d bytes (%v); want the one 0-byte chunk", rep.FreedChunks, rep.FreedBytes, err)
		}
		if _, ok := ps.Peek(key); ok || ps.ChunkCount() != 0 {
			t.Fatalf("0-byte chunk still stored after its collection")
		}
	})
}
