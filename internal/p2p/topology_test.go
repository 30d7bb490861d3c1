package p2p

import (
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// topo2z splits 8 nodes into 2 zones × 2 racks × 2 nodes (node 7, the
// tracker, sits in zone 1).
func topo2z() cluster.Topology {
	return cluster.Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
		RackBandwidth: 1, ZoneBandwidth: 1}
}

// TestPickPrefersNearTierOverLoad: locality outranks the copies given —
// a same-rack holder that has given one beats a cross-zone one that has
// given none; once it has given both, the pick falls outward, and within
// a tier the holder that has given fewest still wins.
func TestPickPrefersNearTierOverLoad(t *testing.T) {
	fab := cluster.NewLive(8)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2, 4, 5})
	co.SetTopology(topo2z())
	// Holders: node 1 (same rack as requester 0), nodes 4 and 5
	// (other zone).
	runOn(fab, 1, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 4, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 5, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 0, func(ctx *cluster.Ctx) {
		var picks [5]cluster.NodeID
		for i := range picks {
			picks[i], _, _ = co.Locate(ctx, 7)
		}
		if picks != [5]cluster.NodeID{1, 1, 4, 5, 4} {
			t.Errorf("picks = %v, want 1 1 4 5 4", picks)
		}
	})
	st := co.Stats()
	if st.TierHits[cluster.TierRack] != 2 || st.TierHits[cluster.TierRemote] != 3 {
		t.Errorf("TierHits = %v, want 2 rack / 3 remote", st.TierHits)
	}
}

// TestPickWithoutTopologyStaysLeastLoaded pins the degenerate case:
// with no topology (or one domain for everyone) the copies given alone
// decide, and every hit books under TierRack.
func TestPickWithoutTopologyStaysLeastLoaded(t *testing.T) {
	for _, topo := range []cluster.Topology{
		{},
		{Zones: 1, RacksPerZone: 1, NodesPerRack: 8, RackBandwidth: 1, ZoneBandwidth: 1},
	} {
		fab := cluster.NewLive(8)
		co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2, 4, 5})
		if topo.Enabled() {
			co.SetTopology(topo)
		}
		runOn(fab, 1, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
		runOn(fab, 4, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
		runOn(fab, 0, func(ctx *cluster.Ctx) {
			// First pick takes the first-announced holder; the copy it
			// gave makes the second pick the other one.
			p1, _, ok := co.Locate(ctx, 7)
			if !ok {
				t.Fatal("Locate found no holder")
			}
			p2, _, ok := co.Locate(ctx, 7)
			if !ok {
				t.Fatal("Locate found no second holder")
			}
			if p1 == p2 {
				t.Errorf("the pick reused node %d over a holder that has given nothing", p1)
			}
		})
		st := co.Stats()
		if st.TierHits[cluster.TierRack] != 2 {
			t.Errorf("topo %+v: TierHits = %v, want both hits under rack", topo, st.TierHits)
		}
	}
}
