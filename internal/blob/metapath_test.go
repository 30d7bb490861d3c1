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
	root2, created, err := BuildVersion(m.batch(), root, span, dirty, m.allocN)
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

// TestConcurrentColdReadersAgree: nothing joins one cold reader to
// another. 16 activities on one fresh client — on the sim fabric, and
// on the live fabric where -race watches them — each get exactly what a
// serial reader gets.
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
		})
	}
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

// TestFetchOfRetiredVersionFails: a version the same client read before
// its retirement reads as retired after it,
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
		root, err := sys.VM.Root(ctx, id, v)
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		leaves, err := CollectLeaves(sys.Meta.Getter(ctx), root, 8, 5, 8)
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

// TestNodeTableWithHoles: after a sweep that empties a whole page of
// the node table and part of another, NodeCount, RetainedKeys, Peek and
// GetBatchInto agree on which refs are stored, and a ref in the dropped
// page or past the table fails the batch with *MissingNodesError.
func TestNodeTableWithHoles(t *testing.T) {
	fab := cluster.NewLive(2)
	m := NewMetaService([]cluster.NodeID{0, 1})
	const total = 2*pageKeys + 452 // refs 1..total: three pages
	node := func(ref NodeRef) TreeNode { return TreeNode{Lo: int64(ref), Hi: int64(ref) + 1, Chunk: ChunkKey(ref)} }
	fab.Run(func(ctx *cluster.Ctx) {
		m.ClearPending(m.AllocPending(total - 300))
		m.AllocPending(300) // the last 300 refs are a write in flight
		nodes := make([]NewNode, total)
		for i := range nodes {
			ref := NodeRef(i + 1)
			nodes[i] = NewNode{Ref: ref, Node: node(ref)}
		}
		m.PutBatch(ctx, nodes)

		// Page 0 live, page 1 all garbage, page 2 live from 2100 to
		// 2150, garbage around that, pending from total-299.
		live := make(map[NodeRef]bool)
		for ref := NodeRef(1); ref < pageKeys; ref++ {
			live[ref] = true
		}
		for ref := NodeRef(2100); ref <= 2150; ref++ {
			live[ref] = true
		}
		wm, pending := m.PendingSnapshot()
		if freed, _ := m.Sweep(ctx, wm, live, pending, 16); len(freed) != pageKeys+52+50 {
			t.Fatalf("swept %d nodes, want %d", len(freed), pageKeys+52+50)
		}
		if m.recs.pages[1] != nil {
			t.Error("the emptied page is still allocated")
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
		stored := func(ref NodeRef) bool {
			return ref >= 1 && ref <= total && (live[ref] || pending.Has(ref))
		}
		var want []NodeRef
		for ref := NodeRef(0); ref <= total+pageKeys; ref++ {
			if stored(ref) {
				want = append(want, ref)
			}
			n, ok := m.Peek(ref)
			if ok != stored(ref) || (ok && n != node(ref)) {
				t.Fatalf("Peek(%d) = %+v, %v; stored: %v", ref, n, ok, stored(ref))
			}
		}
		if got := m.NodeCount(); got != len(want) {
			t.Fatalf("NodeCount = %d, want %d", got, len(want))
		}
		if got := m.RetainedKeys(total + pageKeys); !reflect.DeepEqual(got, want) {
			t.Fatalf("RetainedKeys lists %d refs, want the %d stored in ascending order", len(got), len(want))
		}
		out := make([]TreeNode, len(want))
		if err := m.GetBatchInto(ctx, want, out); err != nil {
			t.Fatalf("batch of every stored ref: %v", err)
		}
		for i, ref := range want {
			if out[i] != node(ref) {
				t.Fatalf("batch served %+v for ref %d", out[i], ref)
			}
		}
		for _, ref := range []NodeRef{pageKeys + 5, 2099, total + 1, 1 << 40} {
			refs := []NodeRef{want[0], ref}
			out := make([]TreeNode, 2)
			var missing *MissingNodesError
			err := m.GetBatchInto(ctx, refs, out)
			if !errors.As(err, &missing) || missing.Missing != 1 || missing.First != ref {
				t.Fatalf("batch with absent ref %d: %v", ref, err)
			}
			if out[0] != node(want[0]) || out[1].valid() {
				t.Fatalf("batch with absent ref %d filled %+v", ref, out)
			}
		}
	})
}
