package blob

import (
	"slices"

	"blobvfs/internal/cluster"
)

// replicaRings precomputes the replica ring of every primary slot:
// rings[s] lists the replicas nodes of a key or ref whose placement
// hash lands on nodes[s], primary first. A ring depends on nothing
// else, so the chunk and the metadata tier build their len(nodes) rings
// once (again when a setter changes degree or topology, before any
// traffic) and hand the same slices to every lookup; callers must not
// write to them.
//
// Without a topology the ring is the primary slot and the slots after
// it (which slot is primary is the stripe's business: primarySlot).
// With one, the walk spreads the copies across failure domains: the
// first pass only takes nodes in zones no earlier replica occupies, the
// second pass fresh racks, and the final pass fills any remainder in
// plain ring order — so data at replication degree z survives z-1 zone
// losses, and the degenerate single-domain topology reproduces the
// flat ring walk exactly.
func replicaRings(nodes []cluster.NodeID, replicas int, topo cluster.Topology) [][]cluster.NodeID {
	n := len(nodes)
	rings := make([][]cluster.NodeID, n)
	all := make([]cluster.NodeID, 0, n*replicas)
	spread := topo.Enabled() && replicas > 1
	usedZones := make([]int, 0, replicas)
	usedRacks := make([]int, 0, replicas)
	taken := make([]bool, n)
	for first := range rings {
		start := len(all)
		if !spread {
			for i := 0; i < replicas; i++ {
				all = append(all, nodes[(first+i)%n])
			}
		} else {
			usedZones, usedRacks = usedZones[:0], usedRacks[:0]
			clear(taken)
			for pass := 0; pass < 3 && len(all)-start < replicas; pass++ {
				for i := 0; i < n && len(all)-start < replicas; i++ {
					slot := (first + i) % n
					if taken[slot] {
						continue
					}
					nd := nodes[slot]
					if pass == 0 && slices.Contains(usedZones, topo.Zone(nd)) {
						continue
					}
					if pass == 1 && slices.Contains(usedRacks, topo.Rack(nd)) {
						continue
					}
					taken[slot] = true
					usedZones = append(usedZones, topo.Zone(nd))
					usedRacks = append(usedRacks, topo.Rack(nd))
					all = append(all, nd)
				}
			}
		}
		// Capped, so an append by a careless caller copies instead of
		// running into the next ring.
		rings[first] = all[start:len(all):len(all)]
	}
	return rings
}

// nearestFirst returns a location list stably reordered so the reader's
// nearest copies come first; within a tier the existing failover order
// is preserved. It never writes to locs — shared rings pass through
// here — and copies only when something is out of order; a disabled
// topology returns locs as is. The sort is an adjacent-swap insertion
// sort: location lists are a handful of entries, and adjacent swaps
// keep it stable.
func nearestFirst(topo cluster.Topology, reader cluster.NodeID, locs []cluster.NodeID) []cluster.NodeID {
	if !topo.Enabled() {
		return locs
	}
	owned := false
	for i := 1; i < len(locs); i++ {
		ti := topo.Tier(reader, locs[i])
		for j := i; j > 0 && topo.Tier(reader, locs[j-1]) > ti; j-- {
			if !owned {
				locs, owned = slices.Clone(locs), true
			}
			locs[j-1], locs[j] = locs[j], locs[j-1]
		}
	}
	return locs
}
