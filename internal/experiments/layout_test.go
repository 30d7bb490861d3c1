package experiments

import (
	"fmt"
	"testing"

	"blobvfs/internal/cluster"
)

// checkLayout asserts what every arrangement promises: IDs inside the
// cluster, a service node that hosts nothing else, and a topology that
// covers the cluster exactly.
func checkLayout(t *testing.T, what string, l layout) {
	t.Helper()
	for _, id := range append(append([]cluster.NodeID{l.service}, l.inst...), l.pool...) {
		if id < 0 || int(id) >= l.size {
			t.Fatalf("%s: node %d outside [0,%d)", what, id, l.size)
		}
	}
	seen := map[cluster.NodeID]string{l.service: "service"}
	for role, ids := range map[string][]cluster.NodeID{"instance": l.inst, "provider": l.pool} {
		for _, id := range ids {
			if id == l.service {
				t.Fatalf("%s: service node %d also hosts a %s", what, id, role)
			}
			if seen[id] == role {
				t.Fatalf("%s: node %d listed twice as %s", what, id, role)
			}
			seen[id] = role
		}
	}
	if err := l.topo.Validate(l.size); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if l.topo.Enabled() && l.topo.Racks()*l.topo.NodesPerRack != l.size {
		t.Fatalf("%s: %d racks × %d nodes != %d", what, l.topo.Racks(), l.topo.NodesPerRack, l.size)
	}
}

// disjoint asserts that no node both hosts an instance and stores
// chunks.
func disjoint(t *testing.T, what string, l layout) {
	t.Helper()
	pool := map[cluster.NodeID]bool{}
	for _, id := range l.pool {
		pool[id] = true
	}
	for _, id := range l.inst {
		if pool[id] {
			t.Fatalf("%s: node %d is an instance and a provider", what, id)
		}
	}
}

// TestLayouts sweeps every arrangement over deployment sizes 1…300:
// sizes that force each of crosszone's 8/4/2/1 rack choices and
// metaoutage's 0…3 pad racks are all in range.
func TestLayouts(t *testing.T) {
	rackSizes, padRacks := map[int]bool{}, map[int]bool{}
	for n := 1; n <= 300; n++ {
		what := fmt.Sprintf("aggregated(%d)", n)
		l := aggregatedLayout(max(110, n), n)
		checkLayout(t, what, l)
		if len(l.inst) != n || len(l.pool) != max(110, n) || l.topo.Enabled() {
			t.Fatalf("%s: %d instances, %d providers, topo %+v", what, len(l.inst), len(l.pool), l.topo)
		}
		for i, id := range l.inst { // instances are a prefix of the pool
			if l.pool[i] != id {
				t.Fatalf("%s: instance %d on node %d, pool has %d there", what, i, id, l.pool[i])
			}
		}

		for _, providers := range []int{4, 8, 16} {
			what = fmt.Sprintf("dedicated(%d,%d)", n, providers)
			l = dedicatedLayout(n, providers)
			checkLayout(t, what, l)
			disjoint(t, what, l)
			if len(l.inst) != n || len(l.pool) != providers || l.size != n+providers+1 {
				t.Fatalf("%s: %d instances, %d providers on %d nodes", what, len(l.inst), len(l.pool), l.size)
			}
		}

		what = fmt.Sprintf("zoned(%d,%d,%d)", crossZones, n, crossProvidersPerZone)
		l = zonedLayout(crossZones, n, crossProvidersPerZone)
		checkLayout(t, what, l)
		disjoint(t, what, l)
		rackSizes[l.topo.NodesPerRack] = true
		if len(l.inst) != crossZones*n || len(l.pool) != crossZones*crossProvidersPerZone || l.topo.Zones != crossZones {
			t.Fatalf("%s: %d instances, %d providers, %d zones", what, len(l.inst), len(l.pool), l.topo.Zones)
		}
		perZone := map[int][2]int{}
		for _, id := range l.inst {
			c := perZone[l.topo.Zone(id)]
			c[0]++
			perZone[l.topo.Zone(id)] = c
		}
		for _, id := range l.pool {
			c := perZone[l.topo.Zone(id)]
			c[1]++
			perZone[l.topo.Zone(id)] = c
		}
		for z := 0; z < crossZones; z++ {
			if perZone[z] != [2]int{n, crossProvidersPerZone} {
				t.Fatalf("%s: zone %d holds %v instances/providers", what, z, perZone[z])
			}
		}
		if l.topo.Zone(l.service) != 0 {
			t.Fatalf("%s: services in zone %d, want 0", what, l.topo.Zone(l.service))
		}

		what = fmt.Sprintf("racked(%d,%d)", n, metaOutageCrowd.Providers)
		l = rackedLayout(n, metaOutageCrowd.Providers)
		checkLayout(t, what, l)
		disjoint(t, what, l)
		padRacks[l.topo.Racks()-racksFor(n)-racksFor(metaOutageCrowd.Providers)-1] = true
		// No rack mixes roles, and the rack the outage kills (the
		// middle instance rack) holds instances only.
		roles := map[int]string{l.topo.Rack(l.service): "service"}
		for role, ids := range map[string][]cluster.NodeID{"instance": l.inst, "provider": l.pool} {
			for _, id := range ids {
				if r := l.topo.Rack(id); roles[r] != "" && roles[r] != role {
					t.Fatalf("%s: rack %d holds a %s and a %s", what, r, roles[r], role)
				} else {
					roles[r] = role
				}
			}
		}
		if kill := racksFor(n) / 2; roles[kill] != "instance" {
			t.Fatalf("%s: the rack kill names rack %d, which holds %q", what, kill, roles[kill])
		}
	}
	for _, n := range []int{8, 4, 2, 1} {
		if !rackSizes[n] {
			t.Errorf("the sweep never forced crosszone racks of %d", n)
		}
	}
	for pad := 0; pad < 4; pad++ {
		if !padRacks[pad] {
			t.Errorf("the sweep never forced %d metaoutage pad racks", pad)
		}
	}
}
