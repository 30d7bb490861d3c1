package blob

import (
	"slices"
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// TestTiersPlaceAlike: the chunk tier and the metadata tier are one
// placement core keyed two ways. Built over the same node list, degree
// and topology, fed the same numeric keys and driven through the same
// kill/revive schedule — puts while nodes are down and a repair sweep
// after every transition included — they must report identical live
// locations for every key at every step. A tier-specific fork of the
// ring walk, the void rule or the sweep order shows up here.
func TestTiersPlaceAlike(t *testing.T) {
	for _, topo := range []cluster.Topology{{}, topo3z()} {
		const nNodes, degree = 9, 3
		fab := cluster.NewSim(cluster.DefaultConfig(nNodes + 1))
		nodes := allNodes(nNodes)
		ps := NewProviderSet(nodes, degree)
		ps.SetTopology(topo)
		m := NewMetaService(nodes)
		m.SetReplication(degree)
		m.SetTopology(topo)
		lv := cluster.NewLiveness(nNodes + 1)
		ps.SetLiveness(lv)
		lv.OnChange(ps.NodeChanged)
		m.SetLiveness(lv)
		lv.OnChange(m.NodeChanged)

		fab.Run(func(ctx *cluster.Ctx) {
			var keys []uint64
			put := func(k uint64) {
				keys = append(keys, k)
				if err := putOne(ctx, ps, ChunkKey(k), SyntheticPayload(4096, k)); err != nil {
					t.Fatalf("chunk %d: %v", k, err)
				}
				m.PutBatch(ctx, []NewNode{{Ref: NodeRef(k), Node: TreeNode{Lo: int64(k), Hi: int64(k) + 1}}})
			}
			for k := uint64(1); k <= 64; k++ {
				put(k)
			}
			rng := sim.NewRNG(23)
			for step := 0; step < 40; step++ {
				victim := nodes[rng.Intn(nNodes)]
				if lv.Alive(victim) && lv.AliveCount() > 3 {
					lv.Kill(ctx, victim)
				} else {
					lv.Revive(ctx, victim)
				}
				put(uint64(1000 + step))
				for _, k := range keys {
					chunk, node := ps.LiveLocations(ChunkKey(k)), m.LiveLocations(NodeRef(k))
					if !slices.Equal(chunk, node) {
						t.Fatalf("topology %v, step %d, key %d: chunk tier at %v, metadata tier at %v",
							topo.Enabled(), step, k, chunk, node)
					}
				}
			}
			if ps.Rereplicated.Load() == 0 || ps.Rereplicated.Load() != m.Rereplicated.Load() {
				t.Fatalf("topology %v: sweeps created %d chunk copies and %d node copies, want equal and nonzero",
					topo.Enabled(), ps.Rereplicated.Load(), m.Rereplicated.Load())
			}
		})
	}
}

// TestUnrepairedKeyLocationsAllocateNothing: an off-ring record for one
// key leaves every other key's location list the shared ring, and the
// recorded key reads its record as is, so reading locations allocates
// nothing for either.
func TestUnrepairedKeyLocationsAllocateNothing(t *testing.T) {
	ps := NewProviderSet(allNodes(4), 2)
	repaired, other := ChunkKey(1), ChunkKey(2)
	ps.mu.Lock()
	ps.off[repaired] = []cluster.NodeID{2, 3}
	ps.mu.Unlock()
	locations := func(key ChunkKey) []cluster.NodeID {
		ps.mu.RLock()
		defer ps.mu.RUnlock()
		return ps.locationsLocked(key)
	}
	if locs := locations(repaired); !slices.Equal(locs, []cluster.NodeID{2, 3}) {
		t.Fatalf("repaired key at %v, want its record [2 3]", locs)
	}
	for _, key := range []ChunkKey{repaired, other} {
		if allocs := testing.AllocsPerRun(100, func() { locations(key) }); allocs != 0 {
			t.Fatalf("locations of key %d allocates %v times, want 0", key, allocs)
		}
	}
}
