package experiments

import (
	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
)

// This file implements the cross-zone flash-crowd scenario: the same
// image deployed simultaneously across several availability zones
// connected by scarce interconnects. The paper's cluster is a flat
// Gigabit switch (§5.1), but the IaaS clouds it targets span failure
// domains whose cross-domain bytes are the expensive ones. The
// scenario deploys one image to zones × InstancesPerZone instances
// over a provider pool with members in every zone, and measures where
// the bytes went — per locality tier, with the zone-interconnect
// traffic (Sim.CrossZoneBytes) as the headline. Run it twice, flat
// policy vs. topology-aware (WithTopology), over the *same physical
// fabric*: awareness spreads each chunk's replicas one-per-zone at
// write time, serves each read from the reader's own zone, and keeps
// p2p exchanges rack- or zone-local, so the interconnect carries only
// the first seeding of each zone instead of two thirds of the crowd.

// The cross-zone scenario's fixed shape: 3 availability zones, each
// with a 3-node share of the storage pool (the pool spans all zones),
// and one chunk replica per zone, so aware placement can pin a copy in
// every zone.
const (
	crossZones            = 3
	crossProvidersPerZone = 3
	crossReplicas         = crossZones
)

// CrossZoneConfig parameterizes one cross-zone run.
type CrossZoneConfig struct {
	// InstancesPerZone is the per-zone deployment fan-out.
	InstancesPerZone int
	// Aware turns on topology-aware placement, replica selection and
	// peer selection (blobvfs.WithTopology). Off is the flat-policy
	// baseline over the identical physical fabric.
	Aware bool
	// Sharing toggles the p2p chunk-sharing layer.
	Sharing bool
}

// RunCrossZone deploys one image to 3 × cz.InstancesPerZone instances
// spread over a zoned fabric (zonedLayout) and reports the traffic per
// locality tier.
func RunCrossZone(p Params, cz CrossZoneConfig) CrowdPoint {
	if cz.InstancesPerZone < 1 {
		panic("experiments: cross-zone deployment needs at least one instance per zone")
	}
	// The physical fabric is identical for both policies: tier links
	// and per-tier accounting are always on. Only the repo's placement
	// and selection policy switches with cz.Aware.
	l := zonedLayout(crossZones, cz.InstancesPerZone, crossProvidersPerZone)
	opts := append(sharingOption(cz.Sharing), blobvfs.WithReplicas(crossReplicas))
	if cz.Aware {
		opts = append(opts, blobvfs.WithTopology(l.topo))
	}
	return deployCrowd(newEnv(p, l, OurApproach, opts...), CrowdPoint{
		Instances: len(l.inst),
		Providers: len(l.pool),
		Zones:     crossZones,
		Aware:     cz.Aware,
		Sharing:   cz.Sharing,
	})
}

// CrossZoneTable renders a flat-vs-aware comparison; the cross-zone
// column is the headline.
func CrossZoneTable(points []CrowdPoint) *metrics.Table {
	return table("Cross-zone flash crowd: one image deployed over zoned fabric, flat policy vs topology-aware", points,
		col[CrowdPoint]{"zones", func(pt CrowdPoint) string { return itoa(pt.Zones) }},
		col[CrowdPoint]{"inst/zone", func(pt CrowdPoint) string { return itoa(pt.Instances / pt.Zones) }},
		col[CrowdPoint]{"aware", func(pt CrowdPoint) string { return onOff(pt.Aware) }},
		crowdSharing,
		crowdCompletion,
		col[CrowdPoint]{"cross-zone (GB)", func(pt CrowdPoint) string { return gbs(pt.CrossZoneBytes) }},
		col[CrowdPoint]{"zone-local (GB)", func(pt CrowdPoint) string { return gbs(pt.TierBytes[cluster.TierZone]) }},
		col[CrowdPoint]{"rack-local (GB)", func(pt CrowdPoint) string { return gbs(pt.TierBytes[cluster.TierRack]) }},
		crowdProviderReads,
		crowdHottest,
		crowdPeerReads,
	)
}
