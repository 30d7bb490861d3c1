package experiments

import "blobvfs/internal/cluster"

// layout declares where a scenario's nodes sit: how many nodes the
// cluster has, which of them host one VM instance each (in launch
// order), which form the storage pool, which one runs the services
// (version manager, NFS server, p2p tracker), and how the fabric is
// tiered. It is the only thing that differs between the scenarios'
// set-ups; newEnv does the rest.
type layout struct {
	size    int
	inst    []cluster.NodeID
	pool    []cluster.NodeID
	service cluster.NodeID
	topo    cluster.Topology
}

// nodeRange returns the n consecutive node IDs starting at first.
func nodeRange(first, n int) []cluster.NodeID {
	ids := make([]cluster.NodeID, n)
	for i := range ids {
		ids[i] = cluster.NodeID(first + i)
	}
	return ids
}

// aggregatedLayout is the paper's setup (§5.1): a cluster of total
// compute nodes plus one dedicated service node. The storage service
// is always deployed over ALL compute nodes (§3.1.1: the pool
// aggregates every local disk), while only the first n host VM
// instances — so per-provider read pressure grows with n, which is the
// contention the paper measures.
func aggregatedLayout(total, n int) layout {
	pool := nodeRange(0, total)
	return layout{size: total + 1, inst: pool[:n:n], pool: pool, service: cluster.NodeID(total)}
}

// dedicatedLayout is the arrangement of the dedicated-pool scenarios
// (flash crowd, degraded, churn, multisnapshot): instances compute
// nodes, then a small providers-node storage pool that does not grow
// with the deployment, then one service node, on a flat fabric.
func dedicatedLayout(instances, providers int) layout {
	return layout{
		size:    instances + providers + 1,
		inst:    nodeRange(0, instances),
		pool:    nodeRange(instances, providers),
		service: cluster.NodeID(instances + providers),
	}
}

// tieredTopology returns a zones × racksPerZone × nodesPerRack fabric
// with the link constants every tiered scenario uses: rack uplinks at
// 4× the node NIC (a 2:1 oversubscribed top-of-rack switch for racks
// of 8) and zone interconnects at 2× the node NIC — the scarce
// resource a whole zone's external traffic squeezes through — with
// 50µs extra RTT across racks and 1ms across zones.
func tieredTopology(zones, racksPerZone, nodesPerRack int) cluster.Topology {
	nic := cluster.DefaultConfig(1).NICBandwidth
	return cluster.Topology{
		Zones:         zones,
		RacksPerZone:  racksPerZone,
		NodesPerRack:  nodesPerRack,
		RackBandwidth: 4 * nic,
		RackLatency:   5e-5,
		ZoneBandwidth: 2 * nic,
		ZoneLatency:   1e-3,
	}
}

// zonedLayout is the cross-zone arrangement: zone z occupies the
// contiguous ID block [z·S, (z+1)·S) with S = instPerZone +
// provPerZone + 1 — instances first, then providers, then one
// auxiliary node; zone 0's auxiliary node runs the services. Racks are
// the largest of 8/4/2/1 nodes that divides a zone evenly, so the
// topology always covers the cluster exactly.
func zonedLayout(zones, instPerZone, provPerZone int) layout {
	zoneSize := instPerZone + provPerZone + 1
	perRack := 1
	for _, n := range []int{8, 4, 2} {
		if zoneSize%n == 0 {
			perRack = n
			break
		}
	}
	l := layout{
		size:    zones * zoneSize,
		service: cluster.NodeID(instPerZone + provPerZone),
		topo:    tieredTopology(zones, zoneSize/perRack, perRack),
	}
	for z := 0; z < zones; z++ {
		l.inst = append(l.inst, nodeRange(z*zoneSize, instPerZone)...)
		l.pool = append(l.pool, nodeRange(z*zoneSize+instPerZone, provPerZone)...)
	}
	return l
}

// The metadata-outage fabric's rack size and zone count.
const (
	rackedNodesPerRack = 8
	rackedZones        = 4
)

// racksFor returns how many racks n nodes of one role occupy.
func racksFor(n int) int { return (n + rackedNodesPerRack - 1) / rackedNodesPerRack }

// rackedLayout is the metadata-outage arrangement: instance racks
// first, then provider racks, then one auxiliary rack whose first node
// runs the services, so a rack-scoped fault takes out nodes of one
// role only. Idle racks pad the total to a multiple of rackedZones so
// the topology covers the cluster exactly.
func rackedLayout(instances, providers int) layout {
	instRacks, provRacks := racksFor(instances), racksFor(providers)
	racks := instRacks + provRacks + 1 // one auxiliary rack
	for racks%rackedZones != 0 {
		racks++ // idle pad racks
	}
	return layout{
		size:    racks * rackedNodesPerRack,
		inst:    nodeRange(0, instances),
		pool:    nodeRange(instRacks*rackedNodesPerRack, providers),
		service: cluster.NodeID((instRacks + provRacks) * rackedNodesPerRack),
		topo:    tieredTopology(rackedZones, racks/rackedZones, rackedNodesPerRack),
	}
}
