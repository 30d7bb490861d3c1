package blob

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"blobvfs/internal/cluster"
)

// cmFixture is a 64-chunk snapshot whose tree sits on six metadata
// providers (nodes 0–5) of a sim fabric, with node 6 as the version
// manager and node 7 as the reader. The liveness registry has no
// listeners, so a kill runs no repair sweep and the rings alone decide.
type cmFixture struct {
	fab     *cluster.Sim
	sys     *System
	lv      *cluster.Liveness
	root    NodeRef
	span, n int64
}

const cmReader = cluster.NodeID(7)

func newCMFixture(t *testing.T, degree int) cmFixture {
	t.Helper()
	f := cmFixture{fab: cluster.NewSim(cluster.DefaultConfig(8)), lv: cluster.NewLiveness(8)}
	f.sys = NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5}, 6, 1)
	f.sys.Meta.SetReplication(degree)
	f.sys.Meta.SetLiveness(f.lv)
	f.fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(f.sys)
		id, err := c.Create(ctx, 64<<16, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		inf, _ := c.Info(ctx, id)
		f.span, f.n = inf.Span, inf.Chunks()
		if f.root, err = f.sys.VM.Root(ctx, id, v); err != nil {
			t.Fatal(err)
		}
	})
	return f
}

// node returns the ref of the stored node covering [lo,hi).
func (f cmFixture) node(t *testing.T, lo, hi int64) NodeRef {
	t.Helper()
	m := f.sys.Meta
	m.mu.RLock()
	defer m.mu.RUnlock()
	for ref, n := range m.recs.all {
		if n.Lo == lo && n.Hi == hi {
			return ref
		}
	}
	t.Fatalf("no node covers [%d,%d)", lo, hi)
	return 0
}

// set overwrites a stored node in place; the zero TreeNode removes it.
func (f cmFixture) set(ref NodeRef, n TreeNode) {
	m := f.sys.Meta
	m.mu.Lock()
	if n.valid() {
		m.recs.put(ref, n)
	} else {
		m.recs.del(ref)
	}
	m.mu.Unlock()
}

// descentCost is what one descent of the fixture's tree cost and
// returned: its modelled time, fabric traffic and metadata counters.
type descentCost struct {
	elapsed                          float64
	traffic                          int64
	gets, served, failovers, failing int64
	leaves                           []LeafEntry
	err                              error
}

func (c descentCost) String() string {
	return fmt.Sprintf("elapsed %v traffic %d gets %d served %d failovers %d failed %d err %v",
		c.elapsed, c.traffic, c.gets, c.served, c.failovers, c.failing, c.err)
}

// measure runs descend once on the reader node.
func (f cmFixture) measure(descend func(*cluster.Ctx) ([]LeafEntry, error)) descentCost {
	m := f.sys.Meta
	var c descentCost
	traffic, gets, served := f.fab.NetTraffic(), m.Gets.Load(), m.NodesServed.Load()
	failovers, failing := m.Failovers.Load(), m.FailedGets.Load()
	f.fab.Run(func(ctx *cluster.Ctx) {
		ctx.Wait(ctx.Go("reader", cmReader, func(cc *cluster.Ctx) {
			start := cc.Now()
			c.leaves, c.err = descend(cc)
			c.elapsed = cc.Now() - start
		}))
	})
	c.traffic = f.fab.NetTraffic() - traffic
	c.gets, c.served = m.Gets.Load()-gets, m.NodesServed.Load()-served
	c.failovers, c.failing = m.Failovers.Load()-failovers, m.FailedGets.Load()-failing
	return c
}

// TestChunkMapReplayEqualsDescent: a chunk-map replay and a direct
// CollectLeaves over Meta.Getter cost the same modelled time, traffic
// and metadata counters, return the same leaves, and fail with the
// same error at the same instant. Each side runs on a fixture of its
// own, built and damaged the same way.
func TestChunkMapReplayEqualsDescent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		degree int
		damage func(t *testing.T, f cmFixture, ctx *cluster.Ctx)
		want   error // nil, or what errors.Is must match
	}{
		{name: "degree-1", degree: 1},
		{name: "degree-2-dead-member", degree: 2, damage: func(t *testing.T, f cmFixture, ctx *cluster.Ctx) {
			f.lv.Kill(ctx, 0)
		}},
		{name: "missing-nodes", degree: 1, want: ErrNotFound, damage: func(t *testing.T, f cmFixture, ctx *cluster.Ctx) {
			f.set(f.node(t, 9, 10), TreeNode{})
			f.set(f.node(t, 5, 6), TreeNode{})
		}},
		{name: "no-replica", degree: 2, want: ErrNoReplica, damage: func(t *testing.T, f cmFixture, ctx *cluster.Ctx) {
			for _, prov := range f.sys.Meta.Replicas(f.node(t, 16, 32)) {
				f.lv.Kill(ctx, prov)
			}
		}},
		{name: "corrupt", degree: 1, want: ErrCorruptTree, damage: func(t *testing.T, f cmFixture, ctx *cluster.Ctx) {
			ref := f.node(t, 32, 48)
			f.set(ref, TreeNode{Lo: 33, Hi: 48, Left: 1, Right: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(replay bool) descentCost {
				f := newCMFixture(t, tc.degree)
				if tc.damage != nil {
					f.fab.Run(func(ctx *cluster.Ctx) { tc.damage(t, f, ctx) })
				}
				return f.measure(func(ctx *cluster.Ctx) ([]LeafEntry, error) {
					if replay {
						return f.sys.Meta.chunkMap(ctx, f.root, f.span, f.n)
					}
					return CollectLeaves(f.sys.Meta.Getter(ctx), f.root, f.span, 0, f.n)
				})
			}
			direct, replayed := run(false), run(true)
			if replayed.String() != direct.String() {
				t.Fatalf("replay  %s\ndescent %s", replayed, direct)
			}
			if !reflect.DeepEqual(replayed.leaves, direct.leaves) {
				t.Fatalf("replay returned %d leaves, descent %d, and they differ", len(replayed.leaves), len(direct.leaves))
			}
			if tc.want == nil {
				if direct.err != nil || len(direct.leaves) != 64 || direct.gets == 0 {
					t.Fatalf("healthy descent: %s, %d leaves", direct, len(direct.leaves))
				}
				if tc.degree > 1 && direct.failovers == 0 {
					t.Fatal("a dead ring member cost the descent no failover")
				}
				return
			}
			if !errors.Is(replayed.err, tc.want) {
				t.Fatalf("replay err = %v, want %v", replayed.err, tc.want)
			}
			var rm, dm *MissingNodesError
			if errors.As(replayed.err, &rm) != errors.As(direct.err, &dm) || rm != nil && *rm != *dm {
				t.Fatalf("replay missing %+v, descent missing %+v", rm, dm)
			}
		})
	}
}

// TestChunkMapWaveSharesOneWalk: descents of one tree in flight
// together walk it once and each pay a full descent; every caller gets
// the walk's one map, and the record goes with the last replay, so the
// next descent walks again.
func TestChunkMapWaveSharesOneWalk(t *testing.T) {
	f := newCMFixture(t, 1)
	m := f.sys.Meta
	one := f.measure(func(ctx *cluster.Ctx) ([]LeafEntry, error) {
		return m.chunkMap(ctx, f.root, f.span, f.n)
	})
	const wave = 3
	walks, gets, served := m.Walks.Load(), m.Gets.Load(), m.NodesServed.Load()
	maps := make([][]LeafEntry, wave)
	f.fab.Run(func(ctx *cluster.Ctx) {
		var tasks []cluster.Task
		for i := range maps {
			tasks = append(tasks, ctx.Go("reader", cmReader, func(cc *cluster.Ctx) {
				var err error
				if maps[i], err = m.chunkMap(cc, f.root, f.span, f.n); err != nil {
					t.Error(err)
				}
			}))
		}
		ctx.WaitAll(tasks)
	})
	if w := m.Walks.Load() - walks; w != 1 {
		t.Fatalf("a wave of %d walked %d times, want 1", wave, w)
	}
	if g, s := m.Gets.Load()-gets, m.NodesServed.Load()-served; g != wave*one.gets || s != wave*one.served {
		t.Fatalf("a wave of %d cost %d gets and %d nodes, want %d times %d and %d", wave, g, s, wave, one.gets, one.served)
	}
	for i, lv := range maps {
		if !reflect.DeepEqual(lv, one.leaves) {
			t.Fatalf("map %d differs from a lone descent's", i)
		}
	}
	for i, lv := range maps {
		if &lv[0] != &maps[0][0] {
			t.Fatalf("map %d has a backing array of its own, want the wave's one", i)
		}
	}
	if len(m.walks) != 0 {
		t.Fatalf("%d walk records outlived their replays", len(m.walks))
	}
	walks = m.Walks.Load()
	f.measure(func(ctx *cluster.Ctx) ([]LeafEntry, error) { return m.chunkMap(ctx, f.root, f.span, f.n) })
	if w := m.Walks.Load() - walks; w != 1 {
		t.Fatalf("a descent after the wave walked %d times, want 1", w)
	}
}

// TestChunkMapConcurrentLive: on the live fabric, where activities are
// goroutines, concurrent ChunkMaps of one snapshot each get the whole
// map, read it while others do, and leave no record behind (run it
// under -race).
func TestChunkMapConcurrentLive(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		w := NewClient(sys)
		id, _ := w.Create(ctx, 64<<16, 1<<16)
		v, err := w.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.ChunkMap(ctx, id, v)
		if err != nil {
			t.Fatal(err)
		}
		var tasks []cluster.Task
		for i := range 8 {
			tasks = append(tasks, ctx.Go("open", cluster.NodeID(i%4), func(cc *cluster.Ctx) {
				lv, err := NewClient(sys).ChunkMap(cc, id, v)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(lv, want) {
					t.Errorf("map %d differs from a lone descent's", i)
				}
			}))
		}
		ctx.WaitAll(tasks)
	})
	if len(sys.Meta.walks) != 0 {
		t.Fatalf("%d walk records outlived their replays", len(sys.Meta.walks))
	}
}
