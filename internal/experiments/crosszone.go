package experiments

import "fmt"

// This file implements the cross-zone flash-crowd scenario: the same
// image deployed simultaneously across several availability zones
// connected by scarce interconnects. The paper's cluster is a flat
// Gigabit switch (§5.1), but the IaaS clouds it targets span failure
// domains whose cross-domain bytes are the expensive ones. The
// scenario deploys one image to a crowd split evenly over the zones
// over a provider pool with members in every zone, and measures where
// the bytes went — per locality tier, with the zone-interconnect
// traffic (Sim.TierTraffic(TierRemote)) as the headline. Run it twice,
// flat policy vs. topology-aware (WithTopology), over the *same
// physical fabric*: awareness writes one replica of each chunk per
// zone, serves each read from the reader's own zone, and keeps p2p
// exchanges rack- or zone-local, so the interconnect carries only the
// first seeding of each zone instead of two thirds of the crowd.

// The cross-zone scenario's fixed shape: 3 availability zones, each
// with a 3-node share of the storage pool (the pool spans all zones),
// and one chunk replica per zone, so aware placement can pin a copy in
// every zone.
const (
	crossZones            = 3
	crossProvidersPerZone = 3
)

var crossZoneCrowd = Crowd{Zones: crossZones, Providers: crossZones * crossProvidersPerZone, Replicas: crossZones, MetaReplicas: 1}

// RunCrossZone deploys one image to c.Instances instances spread
// evenly over c.Zones zones of a zoned fabric (zonedLayout), so
// c.Instances must be a positive multiple of the zone count. c.Aware turns on topology-aware placement,
// replica selection and peer selection (blobvfs.WithTopology); off is
// the flat-policy baseline over the identical physical fabric. It
// kills nothing, and reports the traffic per locality tier.
func RunCrossZone(p Params, c Crowd) CrowdPoint {
	c = c.shaped(crossZoneCrowd, Crowd{Instances: c.Instances, Aware: c.Aware, Sharing: c.Sharing})
	if c.Instances%c.Zones != 0 {
		panic(fmt.Sprintf("experiments: %d instances do not split over %d zones", c.Instances, c.Zones))
	}
	// The physical fabric is identical for both policies: tier links
	// and per-tier accounting are always on. Only the repo's placement
	// and selection policy switches with c.Aware.
	l := zonedLayout(c.Zones, c.Instances/c.Zones, c.Providers/c.Zones)
	return deployCrowd(crowdEnv(p, c, l, nil), c)
}
