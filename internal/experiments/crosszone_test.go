package experiments

import (
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
)

// TestCrossZoneAwarenessCutsInterconnectTraffic is the scenario's
// acceptance property: over the identical zoned fabric, switching the
// repo from the flat policy to topology awareness must cut the bytes
// crossing zone interconnects at least in half, with and without p2p
// sharing (the remaining cross-zone traffic is the tracker and
// version-manager chatter plus the first seeding of each zone).
func TestCrossZoneAwarenessCutsInterconnectTraffic(t *testing.T) {
	p := Quick()
	for _, sharing := range []bool{false, true} {
		cz := Crowd{Instances: 48, Sharing: sharing}
		flat := RunCrossZone(p, cz)
		cz.Aware = true
		aware := RunCrossZone(p, cz)

		flatCross, awareCross := flat.TierBytes[cluster.TierRemote], aware.TierBytes[cluster.TierRemote]
		if flatCross == 0 {
			t.Fatalf("sharing=%v: flat run crossed no zone boundary", sharing)
		}
		if awareCross*2 > flatCross {
			t.Errorf("sharing=%v: awareness cut cross-zone bytes only %d -> %d, want >= 2x",
				sharing, flatCross, awareCross)
		}
		// Aware placement pins one replica in every zone, so no chunk
		// read has to leave its zone: every provider read books at
		// rack distance or closer except the ones the flat policy
		// cannot classify.
		if aware.ProviderTierReads[cluster.TierRemote] != 0 {
			t.Errorf("sharing=%v: %d aware provider reads crossed zones, want 0",
				sharing, aware.ProviderTierReads[cluster.TierRemote])
		}
	}
}

// TestCrossZoneDeterministic: the scenario is bit-for-bit repeatable
// in both policies, tier counters included.
func TestCrossZoneDeterministic(t *testing.T) {
	p := Quick()
	for _, aware := range []bool{false, true} {
		cz := Crowd{Instances: 24, Aware: aware, Sharing: true}
		a := RunCrossZone(p, cz)
		b := RunCrossZone(p, cz)
		if a != b {
			t.Errorf("cross-zone (aware=%v) not deterministic:\n  %+v\n  %+v", aware, a, b)
		}
	}
}

// TestFlashCrowdSingleZoneTopologyMatchesFlat pins the tentpole's
// degenerate case end to end: the flash crowd on a fabric whose
// topology puts every node in one zone and one rack — tier links
// created, placement, replica ordering and peer selection all running
// their topology-aware code paths — reproduces the plain flat-cluster
// run byte-identically, p2p statistics included.
func TestFlashCrowdSingleZoneTopologyMatchesFlat(t *testing.T) {
	p := Quick()
	nic := cluster.DefaultConfig(1).NICBandwidth
	fc := Crowd{Instances: 16, Providers: 4, Sharing: true}
	flat := RunFlashCrowd(p, fc)
	topo := cluster.Topology{
		Zones: 1, RacksPerZone: 1, NodesPerRack: fc.Instances + fc.Providers + 1,
		RackBandwidth: nic, ZoneBandwidth: nic,
	}
	l := dedicatedLayout(fc.Instances, fc.Providers)
	l.topo = topo
	env := newEnv(p, l, OurApproach, blobvfs.WithP2P(), blobvfs.WithTopology(topo))
	single := deployCrowd(env, flat.Crowd)
	// Topology is not part of the point; everything measured must be.
	if flat != single {
		t.Errorf("single-zone topology diverged from flat flash crowd:\n  flat:   %+v\n  single: %+v",
			flat, single)
	}
}

// TestCrossZoneInstancesAreTheCrowdTotal: Crowd.Instances is the whole
// crowd, which must split evenly over the zones; and the scenario,
// which has no kill schedule, rejects a kill.
func TestCrossZoneInstancesAreTheCrowdTotal(t *testing.T) {
	p := Quick()
	for _, c := range []Crowd{{Instances: 0}, {Instances: 4}, {Instances: 7}, {Instances: 6, Kill: 1}, {Instances: 6, KillRack: true}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunCrossZone accepted %+v over %d zones", c, crossZones)
				}
			}()
			RunCrossZone(p, c)
		}()
	}
	pt := RunCrossZone(p, Crowd{Instances: 6})
	if pt.Instances != 6 || pt.Zones != crossZones || pt.Booted != 6 {
		t.Errorf("6 instances over %d zones: recorded %d instances over %d zones, %d booted",
			crossZones, pt.Instances, pt.Zones, pt.Booted)
	}
}
