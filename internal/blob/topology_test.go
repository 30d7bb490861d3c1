package blob

import (
	"slices"
	"testing"

	"blobvfs/internal/cluster"
)

// topo3z is 3 zones × 1 rack × 3 nodes: nodes 0-2 in zone 0, 3-5 in
// zone 1, 6-8 in zone 2 (bandwidths are irrelevant to placement).
func topo3z() cluster.Topology {
	return cluster.Topology{Zones: 3, RacksPerZone: 1, NodesPerRack: 3,
		RackBandwidth: 1, ZoneBandwidth: 1}
}

func allNodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}

// TestReplicasSpreadAcrossZones: with a topology, a key's replica set
// takes one node per zone (the failure-domain spread), primary first,
// for every key of the ring.
func TestReplicasSpreadAcrossZones(t *testing.T) {
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	for key := ChunkKey(0); key < 32; key++ {
		locs := ps.Replicas(key)
		if len(locs) != 3 {
			t.Fatalf("key %d: %d replicas, want 3", key, len(locs))
		}
		if locs[0] != ps.nodes[ps.primarySlot(key)] {
			t.Errorf("key %d: primary %d moved (want slot %d)", key, locs[0], ps.primarySlot(key))
		}
		zones := map[int]bool{}
		for _, n := range locs {
			zones[topo3z().Zone(n)] = true
		}
		if len(zones) != 3 {
			t.Errorf("key %d: replicas %v cover %d zones, want 3", key, locs, len(zones))
		}
	}
}

// TestReplicasSpreadAcrossRacks: when the replication degree exceeds
// the zone count, the surplus copies still land in fresh racks before
// doubling up.
func TestReplicasSpreadAcrossRacks(t *testing.T) {
	// 1 zone × 4 racks × 2 nodes.
	topo := cluster.Topology{Zones: 1, RacksPerZone: 4, NodesPerRack: 2,
		RackBandwidth: 1, ZoneBandwidth: 1}
	ps := NewProviderSet(allNodes(8), 3)
	ps.SetTopology(topo)
	for key := ChunkKey(0); key < 16; key++ {
		locs := ps.Replicas(key)
		racks := map[int]bool{}
		for _, n := range locs {
			racks[topo.Rack(n)] = true
		}
		if len(racks) != 3 {
			t.Errorf("key %d: replicas %v cover %d racks, want 3", key, locs, len(racks))
		}
	}
}

// TestReplicasSingleDomainMatchesFlat pins the degenerate case: a
// topology whose nodes all share one zone and rack must reproduce the
// flat consecutive ring walk exactly, key by key.
func TestReplicasSingleDomainMatchesFlat(t *testing.T) {
	flat := NewProviderSet(allNodes(7), 3)
	single := NewProviderSet(allNodes(7), 3)
	single.SetTopology(cluster.Topology{Zones: 1, RacksPerZone: 1, NodesPerRack: 7,
		RackBandwidth: 1, ZoneBandwidth: 1})
	for key := ChunkKey(0); key < 64; key++ {
		a, b := flat.Replicas(key), single.Replicas(key)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %d: single-domain ring %v != flat ring %v", key, b, a)
			}
		}
	}
}

// TestNearestFirst: the reader's nearest copies come first, ties keep
// their failover order (the sort is stable), and the input — which may
// be a ring shared by every key of its slot — is never written to.
func TestNearestFirst(t *testing.T) {
	// Reader in zone 1; list arrives remote-first.
	locs := []cluster.NodeID{0, 6, 4, 3, 8}
	got := nearestFirst(topo3z(), 4, locs)
	if want := []cluster.NodeID{4, 3, 0, 6, 8}; !slices.Equal(got, want) {
		t.Fatalf("nearestFirst = %v, want %v", got, want)
	}
	if want := []cluster.NodeID{0, 6, 4, 3, 8}; !slices.Equal(locs, want) {
		t.Fatalf("nearestFirst wrote to its input: %v", locs)
	}
	// Already nearest-first: the same slice comes back, no copy.
	if again := nearestFirst(topo3z(), 4, got); &again[0] != &got[0] {
		t.Fatal("nearestFirst copied an ordered list")
	}
	// Disabled topology: untouched.
	locs = []cluster.NodeID{7, 2, 5}
	if got := nearestFirst(cluster.Topology{}, 4, locs); !slices.Equal(got, []cluster.NodeID{7, 2, 5}) {
		t.Fatalf("flat nearestFirst reordered: %v", got)
	}
}

// TestReplicasSharedRingSurvivesReads: Replicas hands out one shared
// ring per primary slot; a read that reorders by locality must leave it
// as placement computed it, for the next key of the slot.
func TestReplicasSharedRingSurvivesReads(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(9))
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	fab.Run(func(ctx *cluster.Ctx) {
		for i := 0; i < 18; i++ {
			key := ps.AllocPending(1)
			before := slices.Clone(ps.Replicas(key))
			if err := putOne(ctx, ps, key, Payload{Size: 1024, Tag: uint64(100 + i)}); err != nil {
				t.Fatal(err)
			}
			// Every node reads: most reorder the ring to their own zone.
			for reader := 0; reader < 9; reader++ {
				ctx.Wait(ctx.Go("read", cluster.NodeID(reader), func(cc *cluster.Ctx) {
					if _, err := ps.Get(cc, key); err != nil {
						t.Error(err)
					}
				}))
			}
			if after := ps.Replicas(key); !slices.Equal(before, after) {
				t.Fatalf("key %d: ring %v became %v after reads", key, before, after)
			}
		}
	})
	if tr := ps.TierReads(); tr[cluster.TierRemote] != 0 {
		t.Fatalf("TierReads = %v: with one replica per zone no read should leave the reader's zone", tr)
	}
}

// TestGetPrefersNearestReplicaAndCountsTiers: a topology-aware Get
// serves from the reader's own zone and books the read under the
// right tier counter; killing the near copy fails over outward.
func TestGetPrefersNearestReplicaAndCountsTiers(t *testing.T) {
	fab := cluster.NewLive(9)
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	lv := cluster.NewLiveness(9)
	ps.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		key := ps.AllocPending(1)
		if err := putOne(ctx, ps, key, SyntheticPayload(4096, 1)); err != nil {
			t.Fatal(err)
		}
		locs := ps.Replicas(key)
		// Read from a node in the same zone as the second replica: the
		// copy in the reader's zone must serve, not the primary.
		reader := locs[1]
		done := ctx.Go("read", reader, func(rctx *cluster.Ctx) {
			if _, err := ps.Get(rctx, key); err != nil {
				t.Error(err)
			}
		})
		ctx.Wait(done)
		if n := ps.readsBy[locs[1]].Load(); n != 1 {
			t.Errorf("same-zone replica served %d reads, want 1", n)
		}
		tiers := ps.TierReads()
		if tiers[cluster.TierLocal] != 1 {
			t.Errorf("tier reads = %v, want 1 under local (reader == replica)", tiers)
		}
		// Kill the whole near zone: the read fails over to another
		// zone and books under the remote tier.
		z := topo3z().Zone(reader)
		for n := 3 * z; n < 3*z+3; n++ {
			lv.Kill(ctx, cluster.NodeID(n))
		}
		done = ctx.Go("failover", reader, func(rctx *cluster.Ctx) {
			if _, err := ps.Get(rctx, key); err != nil {
				t.Error(err)
			}
		})
		ctx.Wait(done)
		tiers = ps.TierReads()
		if tiers[cluster.TierRemote] != 1 {
			t.Errorf("tier reads = %v, want 1 under remote after zone kill", tiers)
		}
	})
}
