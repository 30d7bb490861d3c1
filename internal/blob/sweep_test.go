package blob

import (
	"errors"
	"slices"
	"testing"

	"blobvfs/internal/cluster"
)

// Tests of when a repair copy becomes a location: only once its bytes
// have landed from a source that is still up, and only for a key that
// is still stored. Both tiers share the placement core (replicaSet), so
// every test runs on the chunk tier and on the metadata tier.

// midCopy is how long after a transition the second activity of these
// tests acts: inside any one copy of either tier, since a copy is at
// least one RPC and an RPC takes at least RTT + ReqOverhead (4e-4 s on
// the default fabric).
const midCopy = 1e-4

// sweepRig is one tier over four providers at degree 2 whose liveness
// runs a repair sweep on every transition, seen through the calls the
// tests make. A key k is the tier's chunk or tree node number k.
type sweepRig struct {
	lv    *cluster.Liveness
	nodes []cluster.NodeID
	put   func(ctx *cluster.Ctx, key uint64) error
	read  func(ctx *cluster.Ctx, key uint64) error
	live  func(key uint64) []cluster.NodeID
	ring  func(key uint64) []cluster.NodeID
	slot  func(key uint64) int
	// drop deletes the key through a collection's sweep.
	drop func(ctx *cluster.Ctx, key uint64)
	// records is the number of off-ring records held, landed the
	// Rereplicated counter and copies the transfers sweeps charged.
	records func() int
	landed  func() int64
	copies  *int
	// check is the tier's replicaSet.check, run after each test.
	check func() error
}

// copyCounter counts the copies a tier is charged for.
type copyCounter[V any] struct {
	replicaTier[V]
	n *int
}

func (c copyCounter[V]) chargeCopy(cc *cluster.Ctx, src, dst cluster.NodeID, bytes int32) {
	*c.n++
	c.replicaTier.chargeCopy(cc, src, dst, bytes)
}

// forEachTier runs body on a fresh simulated cluster once per tier:
// node 0 hosts the test's activities, nodes 1–4 the providers.
func forEachTier(t *testing.T, body func(t *testing.T, ctx *cluster.Ctx, r sweepRig)) {
	nodes := []cluster.NodeID{1, 2, 3, 4}
	rigs := []struct {
		name string
		make func(lv *cluster.Liveness) sweepRig
	}{
		{"chunks", func(lv *cluster.Liveness) sweepRig {
			ps := NewProviderSet(nodes, 2)
			ps.SetLiveness(lv)
			lv.OnChange(ps.NodeChanged)
			copies := new(int)
			ps.tier = copyCounter[Payload]{ps, copies}
			return sweepRig{
				lv: lv, nodes: nodes, copies: copies,
				put: func(ctx *cluster.Ctx, k uint64) error {
					return putOne(ctx, ps, ChunkKey(k), SyntheticPayload(1<<20, k))
				},
				read: func(ctx *cluster.Ctx, k uint64) error { _, err := ps.Get(ctx, ChunkKey(k)); return err },
				live: func(k uint64) []cluster.NodeID { return ps.LiveLocations(ChunkKey(k)) },
				ring: func(k uint64) []cluster.NodeID { return ps.Replicas(ChunkKey(k)) },
				slot: func(k uint64) int { return ps.primarySlot(ChunkKey(k)) },
				drop: func(ctx *cluster.Ctx, k uint64) { ps.Sweep(ctx, ChunkKey(k), nil, PendingSet[ChunkKey]{}, 24) },
				records: func() int {
					ps.mu.RLock()
					defer ps.mu.RUnlock()
					return len(ps.off)
				},
				landed: ps.Rereplicated.Load,
				check:  ps.check,
			}
		}},
		{"metadata", func(lv *cluster.Liveness) sweepRig {
			m := NewMetaService(nodes)
			m.SetReplication(2)
			m.SetLiveness(lv)
			lv.OnChange(m.NodeChanged)
			copies := new(int)
			m.tier = copyCounter[TreeNode]{m, copies}
			return sweepRig{
				lv: lv, nodes: nodes, copies: copies,
				put: func(ctx *cluster.Ctx, k uint64) error {
					m.PutBatch(ctx, []NewNode{{Ref: NodeRef(k), Node: TreeNode{Lo: int64(k), Hi: int64(k) + 1, Chunk: ChunkKey(k)}}})
					return nil
				},
				read: func(ctx *cluster.Ctx, k uint64) error { _, err := getNode(m.Getter(ctx), NodeRef(k)); return err },
				live: func(k uint64) []cluster.NodeID { return m.LiveLocations(NodeRef(k)) },
				ring: func(k uint64) []cluster.NodeID { return m.Replicas(NodeRef(k)) },
				slot: func(k uint64) int { return m.primarySlot(NodeRef(k)) },
				drop: func(ctx *cluster.Ctx, k uint64) { m.Sweep(ctx, NodeRef(k), nil, PendingSet[NodeRef]{}, 16) },
				records: func() int {
					m.mu.RLock()
					defer m.mu.RUnlock()
					return len(m.off)
				},
				landed: m.Rereplicated.Load,
				check:  m.check,
			}
		}},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			fab := cluster.NewSim(cluster.DefaultConfig(5))
			r := rig.make(cluster.NewLiveness(5))
			fab.Run(func(ctx *cluster.Ctx) { body(t, ctx, r) })
			if err := r.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// duringSweep kills victim, whose listener runs a repair sweep, while
// fn runs in a second activity once the sweep's copies are in flight;
// it returns when both are done.
func duringSweep(ctx *cluster.Ctx, lv *cluster.Liveness, victim cluster.NodeID, fn func(cc *cluster.Ctx)) {
	other := ctx.Go("mid-sweep", ctx.Node(), func(cc *cluster.Ctx) {
		cc.Sleep(midCopy)
		fn(cc)
	})
	lv.Kill(ctx, victim)
	ctx.WaitAll([]cluster.Task{other})
}

// TestSourceDeathMidSweepLandsNoLocation: the sweep after the primary's
// death copies the key from its second replica; that replica dies while
// the copy is in flight. The copy's source was gone before it finished,
// so the destination holds nothing readable: the key has no live
// location and a read fails with ErrNoReplica rather than being served
// bytes the model never moved.
func TestSourceDeathMidSweepLandsNoLocation(t *testing.T) {
	forEachTier(t, func(t *testing.T, ctx *cluster.Ctx, r sweepRig) {
		const key = 1
		if err := r.put(ctx, key); err != nil {
			t.Fatal(err)
		}
		ring := r.ring(key)
		duringSweep(ctx, r.lv, ring[0], func(cc *cluster.Ctx) { r.lv.Kill(cc, ring[1]) })
		if live := r.live(key); len(live) != 0 {
			t.Fatalf("key live at %v after its copy's source died mid-copy, want nowhere", live)
		}
		if err := r.read(ctx, key); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("read = %v, want ErrNoReplica", err)
		}
		if n := r.landed(); n != 0 {
			t.Fatalf("Rereplicated = %d, want 0", n)
		}
	})
}

// TestInFlightCopyIsNoLocation: a reader looking while the sweep's copy
// is in flight sees only the surviving replica; once the sweep is back,
// the destination is listed after it and counted once.
func TestInFlightCopyIsNoLocation(t *testing.T) {
	forEachTier(t, func(t *testing.T, ctx *cluster.Ctx, r sweepRig) {
		const key = 1
		if err := r.put(ctx, key); err != nil {
			t.Fatal(err)
		}
		ring := r.ring(key)
		var mid []cluster.NodeID
		duringSweep(ctx, r.lv, ring[0], func(*cluster.Ctx) { mid = r.live(key) })
		if !slices.Equal(mid, ring[1:]) {
			t.Fatalf("live mid-copy at %v, want only the surviving replica %v", mid, ring[1:])
		}
		after := r.live(key)
		if len(after) != 2 || after[0] != ring[1] || slices.Contains(ring, after[1]) {
			t.Fatalf("live after the sweep at %v, want %d then a node off the ring %v", after, ring[1], ring)
		}
		if n := r.landed(); n != 1 {
			t.Fatalf("Rereplicated = %d, want 1", n)
		}
		if err := r.read(ctx, key); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeletedKeyMidSweepLeavesNoRecord: a key a collection deletes
// while its repair copy is in flight gains no off-ring record when the
// copy lands.
func TestDeletedKeyMidSweepLeavesNoRecord(t *testing.T) {
	forEachTier(t, func(t *testing.T, ctx *cluster.Ctx, r sweepRig) {
		const key = 1
		if err := r.put(ctx, key); err != nil {
			t.Fatal(err)
		}
		duringSweep(ctx, r.lv, r.ring(key)[0], func(cc *cluster.Ctx) { r.drop(cc, key) })
		if *r.copies != 1 {
			t.Fatalf("sweep charged %d copies, want 1 in flight at the delete", *r.copies)
		}
		if n := r.records(); n != 0 {
			t.Fatalf("%d off-ring records after the key was deleted", n)
		}
		if live := r.live(key); live != nil {
			t.Fatalf("deleted key live at %v", live)
		}
		if n := r.landed(); n != 0 {
			t.Fatalf("Rereplicated = %d for a deleted key, want 0", n)
		}
	})
}

// TestOverlappingSweepsListACopyOnce: a second transition mid-sweep (an
// unrelated provider dies) runs a second sweep before the first one's
// copy has landed, so it plans the same copy again. Both transfers are
// charged, but the destination is listed once and counted once.
func TestOverlappingSweepsListACopyOnce(t *testing.T) {
	forEachTier(t, func(t *testing.T, ctx *cluster.Ctx, r sweepRig) {
		const key = 1
		if err := r.put(ctx, key); err != nil {
			t.Fatal(err)
		}
		ring := r.ring(key)
		// The providers off the ring, in the order a sweep tries them:
		// the first is the copy's destination, the second unrelated.
		var spare []cluster.NodeID
		for i := range r.nodes {
			if n := r.nodes[(r.slot(key)+i)%len(r.nodes)]; !slices.Contains(ring, n) {
				spare = append(spare, n)
			}
		}
		duringSweep(ctx, r.lv, ring[0], func(cc *cluster.Ctx) { r.lv.Kill(cc, spare[1]) })
		if *r.copies != 2 {
			t.Fatalf("sweeps charged %d copies, want 2 (the second sweep overlapped the first)", *r.copies)
		}
		if live, want := r.live(key), []cluster.NodeID{ring[1], spare[0]}; !slices.Equal(live, want) {
			t.Fatalf("live at %v, want %v", live, want)
		}
		if n := r.landed(); n != 1 {
			t.Fatalf("Rereplicated = %d, want 1", n)
		}
	})
}

// TestConcurrentSweepsAndReadsOnLiveFabric: on the live fabric a
// sweep's pullers are goroutines, so here two sweeps per tier append to
// the off-ring records while readers look them up (run it with -race).
// Afterwards every key is back at degree 2, each copy listed once.
func TestConcurrentSweepsAndReadsOnLiveFabric(t *testing.T) {
	fab := cluster.NewLive(7)
	nodes := allNodes(7)[1:]
	ps := NewProviderSet(nodes, 2)
	m := NewMetaService(nodes)
	m.SetReplication(2)
	lv := cluster.NewLiveness(7) // no listeners: the test runs the sweeps
	ps.SetLiveness(lv)
	m.SetLiveness(lv)
	const keys = 64
	fab.Run(func(ctx *cluster.Ctx) {
		for k := uint64(1); k <= keys; k++ {
			if err := putOne(ctx, ps, ChunkKey(k), SyntheticPayload(4096, k)); err != nil {
				t.Fatal(err)
			}
			m.PutBatch(ctx, []NewNode{{Ref: NodeRef(k), Node: TreeNode{Lo: int64(k), Hi: int64(k) + 1}}})
		}
		lv.Kill(ctx, nodes[0])
		var tasks []cluster.Task
		for range 2 {
			tasks = append(tasks,
				ctx.Go("sweep", 0, func(cc *cluster.Ctx) { ps.ReReplicate(cc); m.ReReplicate(cc) }),
				ctx.Go("reader", 0, func(cc *cluster.Ctx) {
					for k := uint64(1); k <= keys; k++ {
						if _, err := ps.Get(cc, ChunkKey(k)); err != nil {
							t.Error(err)
						}
						if _, err := getNode(m.Getter(cc), NodeRef(k)); err != nil {
							t.Error(err)
						}
					}
				}))
		}
		ctx.WaitAll(tasks)
	})
	for k := uint64(1); k <= keys; k++ {
		if chunk, node := ps.LiveLocations(ChunkKey(k)), m.LiveLocations(NodeRef(k)); len(chunk) != 2 || len(node) != 2 {
			t.Fatalf("key %d live at %v (chunk) and %v (node), want 2 copies each", k, chunk, node)
		}
	}
	if err := errors.Join(ps.check(), m.check()); err != nil {
		t.Fatal(err)
	}
}
