package cluster

import "fmt"

// This file is the hierarchical-topology model: zone/rack addressing
// over the flat NodeID space, the locality query the placement and
// peer-selection layers use, and the per-tier link constants the
// simulated fabric turns into shared rack-uplink and zone-interconnect
// links. The zero Topology keeps today's flat single-switch cluster:
// every fabric without an explicit topology behaves byte-identically
// to one built before this model existed.

// Tier classifies the network distance between two nodes, nearest
// first. Comparing tiers with < orders candidates by locality.
type Tier uint8

const (
	// TierLocal: the two endpoints are the same node.
	TierLocal Tier = iota
	// TierRack: distinct nodes under the same top-of-rack switch (or
	// any two distinct nodes of a flat, topology-less cluster).
	TierRack
	// TierZone: same zone, different racks — the path crosses both
	// rack uplinks.
	TierZone
	// TierRemote: different zones — the path additionally crosses the
	// zone interconnect.
	TierRemote

	// NumTiers is the number of locality tiers (for per-tier counters).
	NumTiers = 4
)

// String renders the tier for tables and test failures.
func (t Tier) String() string {
	switch t {
	case TierLocal:
		return "local"
	case TierRack:
		return "rack"
	case TierZone:
		return "zone"
	case TierRemote:
		return "remote"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// Topology describes a hierarchical cluster: Zones zones, each holding
// RacksPerZone racks of NodesPerRack nodes. Node IDs map onto the
// hierarchy in order: node n lives in rack n/NodesPerRack and zone
// n/(RacksPerZone*NodesPerRack). The zero value means "no topology" —
// a flat cluster where every pair of distinct nodes is TierRack and no
// tier links exist.
type Topology struct {
	Zones        int
	RacksPerZone int
	NodesPerRack int

	// RackBandwidth is the per-direction capacity of each rack's
	// uplink to the zone fabric, in bytes/s. Cross-rack traffic
	// traverses the sender's and receiver's rack uplinks.
	RackBandwidth float64
	// RackLatency is the extra one-way round-trip cost of leaving a
	// rack, in seconds, added to Config.RTT on cross-rack RPCs.
	RackLatency float64
	// ZoneBandwidth is the per-direction capacity of each zone's
	// interconnect (the WAN/spine egress), in bytes/s.
	ZoneBandwidth float64
	// ZoneLatency is the extra round-trip cost of crossing zones, in
	// seconds, added instead of (not on top of) RackLatency.
	ZoneLatency float64
}

// Enabled reports whether a topology was configured: the zero value is
// the flat cluster and disables all tier machinery.
func (t Topology) Enabled() bool { return t.Zones != 0 }

// Validate checks the topology against a cluster size, mirroring the
// Config.validate conventions. The zero (disabled) topology is valid
// for any cluster.
func (t Topology) Validate(nodes int) error {
	if !t.Enabled() {
		return nil
	}
	if t.Zones < 0 || t.RacksPerZone <= 0 || t.NodesPerRack <= 0 {
		return fmt.Errorf("cluster: topology %dz × %dr × %dn, need positive counts",
			t.Zones, t.RacksPerZone, t.NodesPerRack)
	}
	if total := t.Zones * t.RacksPerZone * t.NodesPerRack; total != nodes {
		return fmt.Errorf("cluster: topology covers %d nodes (%dz × %dr × %dn), cluster has %d",
			total, t.Zones, t.RacksPerZone, t.NodesPerRack, nodes)
	}
	if t.RackBandwidth <= 0 || t.ZoneBandwidth <= 0 {
		return fmt.Errorf("cluster: topology tier bandwidths must be positive")
	}
	if t.RackLatency < 0 || t.ZoneLatency < 0 {
		return fmt.Errorf("cluster: topology tier latencies must be non-negative")
	}
	return nil
}

// Zone returns the zone index of a node (0 on the flat cluster).
func (t Topology) Zone(n NodeID) int {
	if !t.Enabled() {
		return 0
	}
	return int(n) / (t.RacksPerZone * t.NodesPerRack)
}

// Rack returns the global rack index of a node (0 on the flat
// cluster). Racks are numbered across zones: zone z holds racks
// [z*RacksPerZone, (z+1)*RacksPerZone).
func (t Topology) Rack(n NodeID) int {
	if !t.Enabled() {
		return 0
	}
	return int(n) / t.NodesPerRack
}

// Racks returns the total rack count (1 on the flat cluster).
func (t Topology) Racks() int {
	if !t.Enabled() {
		return 1
	}
	return t.Zones * t.RacksPerZone
}

// Tier returns the locality tier between two nodes: TierLocal for the
// same node, then TierRack/TierZone/TierRemote walking outward. On the
// flat (disabled) topology every pair of distinct nodes is TierRack.
func (t Topology) Tier(a, b NodeID) Tier {
	if a == b {
		return TierLocal
	}
	if !t.Enabled() {
		return TierRack
	}
	// Two divisions, not four: a node's zone is its rack's over
	// RacksPerZone (Zone and Rack, for non-negative ids).
	ra, rb := int(a)/t.NodesPerRack, int(b)/t.NodesPerRack
	if ra == rb {
		return TierRack
	}
	if ra/t.RacksPerZone == rb/t.RacksPerZone {
		return TierZone
	}
	return TierRemote
}
