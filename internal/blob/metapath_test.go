package blob

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"blobvfs/internal/cluster"
)

// batchMapStore is a mapStore that counts its GetNodes rounds.
type batchMapStore struct {
	*mapStore
	rounds  int // GetNodes calls (descent rounds)
	fetched int // refs resolved through GetNodes
}

func (b *batchMapStore) GetNodes(refs []NodeRef, out []TreeNode) error {
	b.rounds++
	b.fetched += len(refs)
	return b.mapStore.GetNodes(refs, out)
}

// batch returns the store as a Getter with fresh counters.
func (m *mapStore) batch() *batchMapStore { return &batchMapStore{mapStore: m} }

// TestCollectLeavesBatchEquivalence: the level-order batched descent
// must produce exactly the flat model's chunk map, over full and
// partial ranges of a shadowed two-version history, in depth-bounded
// rounds.
func TestCollectLeavesBatchEquivalence(t *testing.T) {
	m := newMapStore()
	const span = 64
	keys := make([]ChunkKey, span)
	for i := range keys {
		keys[i] = ChunkKey(1000 + i)
	}
	root := buildFull(t, m, span, keys)
	// Shadow a second version over a few scattered chunks.
	dirty := []DirtyLeaf{
		{Index: 3, Chunk: 9003}, {Index: 31, Chunk: 9031}, {Index: 32, Chunk: 9032}, {Index: 63, Chunk: 9063},
	}
	root2, created, err := BuildVersion(m.batch(), root, span, dirty, m.alloc)
	if err != nil {
		t.Fatalf("BuildVersion: %v", err)
	}
	m.commit(created)
	keys2 := append([]ChunkKey(nil), keys...)
	for _, d := range dirty {
		keys2[d.Index] = d.Chunk
	}

	for _, tc := range []struct {
		root   NodeRef
		model  []ChunkKey
		lo, hi int64
	}{
		{root, keys, 0, span}, {root2, keys2, 0, span},
		{root2, keys2, 0, 1}, {root2, keys2, 31, 33}, {root2, keys2, 63, 64},
		{root2, keys2, 17, 49}, {root2, keys2, 5, 5}, {root2, keys2, span, span},
	} {
		bm := m.batch()
		batched, err := CollectLeaves(bm, tc.root, span, tc.lo, tc.hi)
		if err != nil {
			t.Fatalf("CollectLeaves[%d,%d): %v", tc.lo, tc.hi, err)
		}
		if int64(len(batched)) != tc.hi-tc.lo {
			t.Fatalf("[%d,%d): %d entries", tc.lo, tc.hi, len(batched))
		}
		for i, lf := range batched {
			if want := (LeafEntry{Index: tc.lo + int64(i), Chunk: tc.model[tc.lo+int64(i)]}); lf != want {
				t.Fatalf("[%d,%d) entry %d: %+v, model %+v", tc.lo, tc.hi, i, lf, want)
			}
		}
		// Depth rounds, not node-count round trips: span 64 is depth 6,
		// +1 for the root level.
		if bm.rounds > 7 {
			t.Errorf("[%d,%d): %d batch rounds for a depth-6 tree", tc.lo, tc.hi, bm.rounds)
		}
	}
}

// metaGetBatch is GetBatchInto resolving into a fresh slice, nil on
// error.
func metaGetBatch(ctx *cluster.Ctx, m *MetaService, refs []NodeRef) ([]TreeNode, error) {
	if len(refs) == 0 {
		return nil, m.GetBatchInto(ctx, nil, nil)
	}
	out := make([]TreeNode, len(refs))
	if err := m.GetBatchInto(ctx, refs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestMetaGetBatch: refs spanning multiple providers are charged one
// service operation per distinct provider, and a missing ref fails the
// batch with a not-found error.
func TestMetaGetBatch(t *testing.T) {
	fab := cluster.NewLive(4)
	providers := []cluster.NodeID{0, 1, 2, 3}
	m := NewMetaService(providers)
	fab.Run(func(ctx *cluster.Ctx) {
		var nodes []NewNode
		for i := 1; i <= 8; i++ {
			nodes = append(nodes, NewNode{
				Ref:  NodeRef(i),
				Node: TreeNode{Lo: int64(i), Hi: int64(i) + 1, Chunk: ChunkKey(100 + i)},
			})
		}
		m.PutBatch(ctx, nodes)
		m.Gets.Store(0)
		m.NodesServed.Store(0)

		// Refs 1..8 home to providers 1,2,3,0,1,2,3,0 → 4 distinct.
		refs := []NodeRef{1, 2, 3, 4, 5, 6, 7, 8}
		got, err := metaGetBatch(ctx, m, refs)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		if len(got) != 8 {
			t.Fatalf("GetBatch returned %d nodes, want 8", len(got))
		}
		for i, ref := range refs {
			if got[i].Chunk != ChunkKey(100+int(ref)) {
				t.Errorf("ref %d: got %+v", ref, got[i])
			}
		}
		if g := m.Gets.Load(); g != 4 {
			t.Errorf("Gets = %d, want 4 (one per distinct provider)", g)
		}
		if n := m.NodesServed.Load(); n != 8 {
			t.Errorf("NodesServed = %d, want 8", n)
		}

		// A missing ref fails the whole batch with not-found; the round
		// is still charged.
		m.Gets.Store(0)
		_, err = metaGetBatch(ctx, m, []NodeRef{2, 404, 6})
		var nf *NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("GetBatch with a missing ref: err = %v, want not-found", err)
		}
		if g := m.Gets.Load(); g == 0 {
			t.Error("failed batch charged no service operation")
		}
		if ns, err := metaGetBatch(ctx, m, nil); ns != nil || err != nil {
			t.Errorf("empty GetBatch = (%v, %v), want (nil, nil)", ns, err)
		}
	})
}

// TestConcurrentColdReadersAgree: the client's caches are plain maps
// under a lock, with nothing that joins one cold reader to another. 16
// activities on one fresh client — on the sim fabric, and on the live
// fabric where -race watches them — each get exactly what a serial
// reader gets, and the node cache they filled together holds nothing
// but the service's own nodes.
func TestConcurrentColdReadersAgree(t *testing.T) {
	for name, fab := range map[string]cluster.Fabric{
		"sim":  cluster.NewSim(cluster.DefaultConfig(4)),
		"live": cluster.NewLive(4),
	} {
		t.Run(name, func(t *testing.T) {
			sys := NewSystem([]cluster.NodeID{0, 1, 2, 3}, 0, 1)
			var id ID
			var v Version
			var serial []FetchedChunk
			fab.Run(func(ctx *cluster.Ctx) {
				w := NewClient(sys)
				var err error
				id, err = w.Create(ctx, 1<<20, 64<<10) // 16 chunks
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				v1, err := w.WriteAt(ctx, id, 0, pattern(1<<20, 5), 0)
				if err != nil {
					t.Fatalf("WriteAt: %v", err)
				}
				// A second version shadowing part of the first, so the
				// tree read has shared and new subtrees.
				v, err = w.WriteAt(ctx, id, v1, pattern(200<<10, 9), 300<<10)
				if err != nil {
					t.Fatalf("WriteAt v2: %v", err)
				}
				serial, err = NewClient(sys).FetchChunks(ctx, id, v, 0, 16)
				if err != nil {
					t.Fatalf("serial FetchChunks: %v", err)
				}
			})

			c := NewClient(sys)
			fab.Run(func(ctx *cluster.Ctx) {
				tasks := make([]cluster.Task, 0, 16)
				for w := 0; w < 16; w++ {
					lo := int64(w % 4) // overlapping ranges, some partial
					tasks = append(tasks, ctx.Go("herd", ctx.Node(), func(cc *cluster.Ctx) {
						got, err := c.FetchChunks(cc, id, v, lo, 16)
						if err != nil {
							t.Errorf("herd FetchChunks [%d,16): %v", lo, err)
							return
						}
						if !reflect.DeepEqual(got, serial[lo:]) {
							t.Errorf("herd FetchChunks [%d,16) differs from the serial reader's", lo)
						}
					}))
				}
				ctx.WaitAll(tasks)
			})
			if len(c.nodes) == 0 {
				t.Fatal("the herd cached no node")
			}
			for ref, n := range c.nodes {
				if stored, ok := sys.Meta.peek(ref); !ok || !n.valid() || n != stored {
					t.Errorf("cache holds %+v under ref %d, the service has (%+v, %v)", n, ref, stored, ok)
				}
			}
		})
	}
}

// TestGetNodesNeverStoresAStaleSlot: descend hands getNodes the same
// result buffer level after level, and the service leaves the slot of a
// ref it misses untouched. With keep set, the slot's previous content —
// a valid node of the level above — must not be cached under the ref
// lost to GC, while the refs found beside it are.
func TestGetNodesNeverStoresAStaleSlot(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		nodes := []NewNode{
			{Ref: 1, Node: TreeNode{Lo: 0, Hi: 4, Left: 2, Right: 3}},
			{Ref: 2, Node: TreeNode{Lo: 0, Hi: 2, Chunk: 102}},
			{Ref: 4, Node: TreeNode{Lo: 3, Hi: 4, Chunk: 104}},
		}
		sys.Meta.PutBatch(ctx, nodes)
		const missing = NodeRef(3)
		c := NewClient(sys)
		buf := make([]TreeNode, 3)
		if err := c.getNodes(ctx, []NodeRef{1}, buf[:1], true); err != nil {
			t.Fatalf("level 0: %v", err)
		}
		// The next level reuses buf; slot 0 still holds node 1.
		err := c.getNodes(ctx, []NodeRef{missing, 2, 4}, buf, true)
		var mne *MissingNodesError
		if !errors.As(err, &mne) || !errors.Is(err, ErrNotFound) || mne.First != missing || mne.Missing != 1 {
			t.Fatalf("level 1: err = %v, want the service's MissingNodesError for ref %d", err, missing)
		}
		if buf[0].valid() || buf[1] != nodes[1].Node || buf[2] != nodes[2].Node {
			t.Errorf("level 1 filled %+v, want a cleared slot for the missing ref beside the found ones", buf)
		}
		if n, ok := c.nodes[missing]; ok {
			t.Errorf("the missing ref is cached as %+v", n)
		}
		for _, nn := range nodes {
			if c.nodes[nn.Ref] != nn.Node {
				t.Errorf("found ref %d cached as %+v, want %+v", nn.Ref, c.nodes[nn.Ref], nn.Node)
			}
		}
		// The same guard on the miss-list path (some refs cached): a
		// second missing ref beside cached ones stays out too.
		err = c.getNodes(ctx, []NodeRef{2, 5, 4}, buf, true)
		if !errors.Is(err, ErrNotFound) || buf[0] != nodes[1].Node || buf[1].valid() || buf[2] != nodes[2].Node {
			t.Errorf("mixed round: (%+v, %v)", buf, err)
		}
		if _, ok := c.nodes[5]; ok {
			t.Error("the miss-list path cached a ref the service missed")
		}
		// A client whose cache is still empty skips the lookup; the
		// slot is cleared all the same.
		fresh := NewClient(sys)
		buf[0] = nodes[0].Node
		err = fresh.getNodes(ctx, []NodeRef{missing, 2}, buf[:2], true)
		if _, ok := fresh.nodes[missing]; !errors.Is(err, ErrNotFound) || ok || buf[0].valid() {
			t.Errorf("empty cache: (%+v, %v), missing ref cached: %v", buf[:2], err, ok)
		}
		// And without keep nothing is stored at all.
		lean := NewClient(sys)
		if err := lean.getNodes(ctx, []NodeRef{1, 2}, buf[:2], false); err != nil || len(lean.nodes) != 0 {
			t.Errorf("keep clear: err %v, %d nodes cached", err, len(lean.nodes))
		}
	})
}

// TestRepeatFetchHitsNodeCache: a repeated FetchChunks over the same
// snapshot range, or a sub-range of it, finds every tree node in the
// client's node cache, pays no metadata operation, and returns
// identical leaves.
func TestRepeatFetchHitsNodeCache(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 1<<20, 64<<10)
		v, err := c.WriteAt(ctx, id, 0, pattern(1<<20, 9), 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}

		c2 := NewClient(sys)
		first, err := c2.FetchChunks(ctx, id, v, 2, 11)
		if err != nil {
			t.Fatalf("FetchChunks: %v", err)
		}
		gets := sys.Meta.Gets.Load()
		second, err := c2.FetchChunks(ctx, id, v, 2, 11)
		if err != nil {
			t.Fatalf("repeat FetchChunks: %v", err)
		}
		if g := sys.Meta.Gets.Load(); g != gets {
			t.Errorf("repeat fetch paid %d extra metadata ops", g-gets)
		}
		if _, err := c2.FetchChunks(ctx, id, v, 4, 8); err != nil {
			t.Fatalf("sub-range FetchChunks: %v", err)
		}
		if g := sys.Meta.Gets.Load(); g != gets {
			t.Errorf("sub-range fetch paid %d extra metadata ops", g-gets)
		}
		for i := range first {
			if first[i].Index != second[i].Index || first[i].Key != second[i].Key {
				t.Fatalf("chunk %d differs across fetches: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}

// TestChunkMapVersionBoundaries: a snapshot's chunk map is its own. A
// commit's map differs from its base's exactly at the written index, by
// the key WriteChunksKeyed reports; a clone's map is its source's; and
// FetchChunks reads what the maps say.
func TestChunkMapVersionBoundaries(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 512<<10, 64<<10) // 8 chunks
		v1, err := c.WriteAt(ctx, id, 0, pattern(512<<10, 1), 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		m1, err := c.ChunkMap(ctx, id, v1)
		if err != nil || len(m1) != 8 {
			t.Fatalf("ChunkMap v1: %d entries, %v", len(m1), err)
		}
		v2, keyOf, err := c.WriteChunksKeyed(ctx, id, v1, []ChunkWrite{
			{Index: 3, Payload: RealPayload(pattern(64<<10, 77))},
		})
		if err != nil {
			t.Fatalf("WriteChunksKeyed: %v", err)
		}
		m2, err := c.ChunkMap(ctx, id, v2)
		if err != nil {
			t.Fatalf("ChunkMap v2: %v", err)
		}
		clone, err := c.Clone(ctx, id, v1)
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		mc, err := c.ChunkMap(ctx, clone, 1)
		if err != nil {
			t.Fatalf("ChunkMap clone: %v", err)
		}
		if keyOf[3] == m1[3].Chunk {
			t.Fatal("the commit reused v1's key for chunk 3")
		}
		for i, lf := range m1 {
			want := lf
			if i == 3 {
				want.Chunk = keyOf[3]
			}
			if lf.Index != int64(i) || m2[i] != want || mc[i] != lf {
				t.Errorf("chunk %d: v1 %+v, v2 %+v (want %+v), clone %+v", i, lf, m2[i], want, mc[i])
			}
		}
		after, err := c.FetchChunks(ctx, id, v2, 0, 8)
		if err != nil {
			t.Fatalf("FetchChunks v2: %v", err)
		}
		for i, fc := range after {
			if fc.Key != m2[i].Chunk {
				t.Errorf("v2 chunk %d read key %d, map says %d", i, fc.Key, m2[i].Chunk)
			}
		}
		if !bytes.Equal(after[3].Payload.Data, pattern(64<<10, 77)) {
			t.Error("v2 chunk 3 payload wrong")
		}
		again, err := c.FetchChunks(ctx, id, v1, 3, 4)
		if err != nil {
			t.Fatalf("re-fetch v1: %v", err)
		}
		if again[0].Key != m1[3].Chunk {
			t.Error("v1 chunk 3 changed after commit — version boundary leaked")
		}
	})
}

// TestFetchOfRetiredVersionFails: a version read before its retirement,
// its tree nodes in the client's node cache, reads as retired after it,
// through FetchChunks and ChunkMap alike; the live version still reads.
func TestFetchOfRetiredVersionFails(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 256<<10, 64<<10)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(256<<10, 1), 0)
		v2, err := c.WriteAt(ctx, id, v1, pattern(128<<10, 2), 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if _, err := c.FetchChunks(ctx, id, v1, 0, 4); err != nil {
			t.Fatalf("FetchChunks v1: %v", err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatalf("Retire: %v", err)
		}
		if _, err = c.FetchChunks(ctx, id, v1, 0, 4); !errors.Is(err, ErrVersionRetired) {
			t.Errorf("read of retired version: err = %v, want ErrVersionRetired", err)
		}
		if _, err = c.ChunkMap(ctx, id, v1); !errors.Is(err, ErrVersionRetired) {
			t.Errorf("chunk map of retired version: err = %v, want ErrVersionRetired", err)
		}
		if _, err := c.FetchChunks(ctx, id, v2, 0, 2); err != nil {
			t.Errorf("live version after retirement: %v", err)
		}
	})
}

// TestFetchChunksClampedRanges covers the empty and edge ranges the
// resolver special-cases: lo==hi is free and empty; the last chunk of
// a blob whose chunk count is below the padded span resolves fine.
func TestFetchChunksClampedRanges(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		// 5 chunks of 64K → span padded to 8.
		id, _ := c.Create(ctx, 320<<10, 64<<10)
		v, err := c.WriteAt(ctx, id, 0, pattern(320<<10, 4), 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		gets := sys.Meta.Gets.Load()
		for _, lohi := range [][2]int64{{0, 0}, {3, 3}, {5, 5}} {
			chunks, err := c.FetchChunks(ctx, id, v, lohi[0], lohi[1])
			if err != nil {
				t.Fatalf("empty range [%d,%d): %v", lohi[0], lohi[1], err)
			}
			if len(chunks) != 0 {
				t.Fatalf("empty range [%d,%d) returned %d chunks", lohi[0], lohi[1], len(chunks))
			}
		}
		if g := sys.Meta.Gets.Load(); g != gets {
			t.Errorf("empty ranges paid %d metadata ops", g-gets)
		}
		last, err := c.FetchChunks(ctx, id, v, 4, 5)
		if err != nil {
			t.Fatalf("edge chunk: %v", err)
		}
		if len(last) != 1 || last[0].Index != 4 {
			t.Fatalf("edge chunk = %+v", last)
		}
		if _, err := c.FetchChunks(ctx, id, v, 4, 6); err == nil {
			t.Error("range past chunk count must fail")
		}
		// CollectLeaves itself at the padded-span edge: [5,8) is sparse.
		bg := boundGetter{c, ctx, true}
		root, err := sys.VM.Root(ctx, id, v)
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		leaves, err := CollectLeaves(bg, root, 8, 5, 8)
		if err != nil {
			t.Fatalf("CollectLeaves at span edge: %v", err)
		}
		for i, lf := range leaves {
			if lf.Chunk != 0 {
				t.Errorf("padded leaf %d = %+v, want sparse", i, lf)
			}
		}
	})
}

// TestPrefetchExtents: the open-time descent pays exactly the metadata
// gets of resolving the whole chunk map, and keeps none of the nodes it
// fetched, so a later read descends again.
func TestPrefetchExtents(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		w := NewClient(sys)
		id, _ := w.Create(ctx, 1<<20, 64<<10) // 16 chunks
		v, err := w.WriteAt(ctx, id, 0, pattern(1<<20, 6), 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		gets := sys.Meta.Gets.Load()
		m, err := NewClient(sys).ChunkMap(ctx, id, v)
		if err != nil || len(m) != 16 {
			t.Fatalf("ChunkMap: %d entries, %v", len(m), err)
		}
		mapGets := sys.Meta.Gets.Load() - gets
		c := NewClient(sys)
		gets = sys.Meta.Gets.Load()
		if err := c.PrefetchExtents(ctx, id, v); err != nil {
			t.Fatalf("PrefetchExtents: %v", err)
		}
		if g := sys.Meta.Gets.Load() - gets; g != mapGets || g == 0 {
			t.Errorf("PrefetchExtents paid %d metadata gets, ChunkMap %d", g, mapGets)
		}
		gets = sys.Meta.Gets.Load()
		if _, err := c.FetchChunks(ctx, id, v, 0, 16); err != nil {
			t.Fatalf("FetchChunks: %v", err)
		}
		if sys.Meta.Gets.Load() == gets {
			t.Error("a read after PrefetchExtents found its nodes cached")
		}
	})
}

// TestGetBatchDeterministicOrder: the per-provider charge order of a
// batch is the provider ring, independent of ref order.
func TestGetBatchDeterministicOrder(t *testing.T) {
	fab := cluster.NewLive(3)
	m := NewMetaService([]cluster.NodeID{0, 1, 2})
	fab.Run(func(ctx *cluster.Ctx) {
		var nodes []NewNode
		for i := 1; i <= 6; i++ {
			nodes = append(nodes, NewNode{Ref: NodeRef(i), Node: TreeNode{Lo: int64(i), Hi: int64(i) + 1}})
		}
		m.PutBatch(ctx, nodes)
		a, errA := metaGetBatch(ctx, m, []NodeRef{1, 2, 3, 4, 5, 6})
		b, errB := metaGetBatch(ctx, m, []NodeRef{6, 5, 4, 3, 2, 1})
		if errA != nil || errB != nil {
			t.Fatalf("GetBatch: %v / %v", errA, errB)
		}
		for i := range a {
			if a[i] != b[len(b)-1-i] {
				t.Fatalf("batch results differ at %d: %+v vs %+v", i, a[i], b[len(b)-1-i])
			}
		}
	})
}
