package cluster

import "testing"

// testTopo8 is the smallest topology exercising every tier: 2 zones ×
// 2 racks × 2 nodes. Tier bandwidths default to comfortably above the
// test NIC so the NIC stays the bottleneck unless a test lowers them.
func testTopo8() Topology {
	return Topology{
		Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
		RackBandwidth: 200e6, RackLatency: 5e-4,
		ZoneBandwidth: 400e6, ZoneLatency: 2e-3,
	}
}

func TestTopologyValidate(t *testing.T) {
	ok := testTopo8()
	for _, tc := range []struct {
		name  string
		topo  Topology
		nodes int
		valid bool
	}{
		{"zero topology any cluster", Topology{}, 17, true},
		{"exact cover", ok, 8, true},
		{"single domain", Topology{Zones: 1, RacksPerZone: 1, NodesPerRack: 5,
			RackBandwidth: 1, ZoneBandwidth: 1}, 5, true},
		{"non-divisible node count", ok, 10, false},
		{"undersized cluster", ok, 7, false},
		{"negative zones", Topology{Zones: -2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 1, ZoneBandwidth: 1}, 8, false},
		{"zero racks per zone", Topology{Zones: 2, RacksPerZone: 0, NodesPerRack: 2,
			RackBandwidth: 1, ZoneBandwidth: 1}, 8, false},
		{"zero nodes per rack", Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 0,
			RackBandwidth: 1, ZoneBandwidth: 1}, 8, false},
		{"zero rack bandwidth", Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 0, ZoneBandwidth: 1}, 8, false},
		{"negative zone bandwidth", Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 1, ZoneBandwidth: -1}, 8, false},
		{"negative rack latency", Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 1, ZoneBandwidth: 1, RackLatency: -1e-3}, 8, false},
		{"negative zone latency", Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 1, ZoneBandwidth: 1, ZoneLatency: -1e-3}, 8, false},
	} {
		err := tc.topo.Validate(tc.nodes)
		if tc.valid && err != nil {
			t.Errorf("%s: Validate(%d) = %v, want nil", tc.name, tc.nodes, err)
		}
		if !tc.valid && err == nil {
			t.Errorf("%s: Validate(%d) = nil, want error", tc.name, tc.nodes)
		}
	}
}

func TestTopologyAddressing(t *testing.T) {
	topo := testTopo8()
	for n, want := range []struct{ zone, rack int }{
		{0, 0}, {0, 0}, {0, 1}, {0, 1}, {1, 2}, {1, 2}, {1, 3}, {1, 3},
	} {
		if z := topo.Zone(NodeID(n)); z != want.zone {
			t.Errorf("Zone(%d) = %d, want %d", n, z, want.zone)
		}
		if r := topo.Rack(NodeID(n)); r != want.rack {
			t.Errorf("Rack(%d) = %d, want %d", n, r, want.rack)
		}
	}
	if topo.Racks() != 4 {
		t.Errorf("Racks() = %d, want 4", topo.Racks())
	}
	for _, tc := range []struct {
		a, b NodeID
		want Tier
	}{
		{0, 0, TierLocal}, {0, 1, TierRack}, {0, 2, TierZone},
		{0, 3, TierZone}, {0, 4, TierRemote}, {3, 7, TierRemote},
		{6, 7, TierRack}, {4, 6, TierZone},
	} {
		if got := topo.Tier(tc.a, tc.b); got != tc.want {
			t.Errorf("Tier(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := topo.Tier(tc.b, tc.a); got != tc.want {
			t.Errorf("Tier(%d, %d) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
	// Every pair of a zoned topology whose racks, zones and nodes per
	// rack all differ in number: Tier agrees with Rack and Zone.
	odd := Topology{Zones: 3, RacksPerZone: 2, NodesPerRack: 3}
	for a := NodeID(0); a < 18; a++ {
		for b := NodeID(0); b < 18; b++ {
			want := TierRemote
			switch {
			case a == b:
				want = TierLocal
			case odd.Rack(a) == odd.Rack(b):
				want = TierRack
			case odd.Zone(a) == odd.Zone(b):
				want = TierZone
			}
			if got := odd.Tier(a, b); got != want {
				t.Errorf("3z×2r×3n: Tier(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
	// The flat cluster: same node is local, everything else one hop.
	var flat Topology
	if flat.Tier(3, 3) != TierLocal || flat.Tier(0, 7) != TierRack {
		t.Errorf("flat Tier: got (%v, %v), want (local, rack)",
			flat.Tier(3, 3), flat.Tier(0, 7))
	}
	if flat.Zone(5) != 0 || flat.Rack(5) != 0 || flat.Racks() != 1 {
		t.Errorf("flat addressing: zone %d rack %d racks %d, want 0/0/1",
			flat.Zone(5), flat.Rack(5), flat.Racks())
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierLocal: "local", TierRack: "rack", TierZone: "zone",
		TierRemote: "remote", Tier(9): "Tier(9)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", uint8(tier), got, want)
		}
	}
}

// TestSimTierLatencyAndAccounting checks that the simulated fabric
// charges the per-tier extra latency and books traffic under the
// right tier counter for each locality class.
func TestSimTierLatencyAndAccounting(t *testing.T) {
	cfg := testConfig(8)
	cfg.Topology = testTopo8()
	f := NewSim(cfg)
	// Base cost of a 10 MB response at the 100 MB/s test NIC (tier
	// links are wider, so the NIC stays the bottleneck): RTT 1e-3 +
	// overhead 1e-3 + 0.1 s transfer.
	const base = 0.102
	steps := []struct {
		to    NodeID
		tier  Tier
		extra float64
	}{
		{1, TierRack, 0},      // same rack
		{2, TierZone, 5e-4},   // cross-rack, same zone
		{4, TierRemote, 2e-3}, // cross-zone
	}
	var got [3]float64
	f.Run(func(ctx *Ctx) {
		for i, s := range steps {
			before := ctx.Now()
			ctx.RPC(s.to, 0, 10e6)
			got[i] = ctx.Now() - before
		}
	})
	for i, s := range steps {
		if want := base + s.extra; !almostEq(got[i], want) {
			t.Errorf("RPC 0->%d took %v, want %v", s.to, got[i], want)
		}
		if b := f.TierTraffic(s.tier); b != 10e6 {
			t.Errorf("TierTraffic(%v) = %d, want 10e6", s.tier, b)
		}
	}
	if f.TierTraffic(TierLocal) != 0 {
		t.Errorf("TierTraffic(local) = %d, want 0", f.TierTraffic(TierLocal))
	}
	if f.NetTraffic() != 30e6 {
		t.Errorf("NetTraffic = %d, want 30e6", f.NetTraffic())
	}
	f.ResetTraffic()
	for tier := Tier(0); tier < NumTiers; tier++ {
		if f.TierTraffic(tier) != 0 {
			t.Errorf("after reset, TierTraffic(%v) = %d", tier, f.TierTraffic(tier))
		}
	}
}

// TestSimNetTrafficIsTierSum: the fabric keeps one traffic count per
// tier and none besides, so on a zoned fabric NetTraffic is their sum.
// Concurrent activities on every node send RPCs of small (delay-only)
// and flow-sized payloads to every node, each tier and the node itself
// among them, beside a TransferVia through an extra link; the sum must
// be every off-node byte sent.
func TestSimNetTrafficIsTierSum(t *testing.T) {
	cfg := testConfig(8)
	cfg.Topology = testTopo8()
	f := NewSim(cfg)
	throttle := f.Net().NewLink("throttle", 10e6)
	sizes := []int64{0, 512, smallPayload, smallPayload + 1, 1 << 20}
	var want int64
	f.Run(func(ctx *Ctx) {
		var tasks []Task
		for from := NodeID(0); from < 8; from++ {
			for to := NodeID(0); to < 8; to++ {
				req, resp := sizes[int(from+to)%len(sizes)], sizes[int(from*to+1)%len(sizes)]
				if from != to {
					want += req + resp
				}
				tasks = append(tasks, ctx.Go("rpc", from, func(cc *Ctx) { cc.RPC(to, req, resp) }))
			}
		}
		tasks = append(tasks, ctx.Go("via", 1, func(cc *Ctx) { f.TransferVia(cc, 1, 6, 3<<20, throttle) }))
		want += 3 << 20
		ctx.WaitAll(tasks)
	})
	var sum int64
	for tier := Tier(0); tier < NumTiers; tier++ {
		if tier != TierLocal && f.TierTraffic(tier) == 0 {
			t.Errorf("no traffic booked under %v", tier)
		}
		sum += f.TierTraffic(tier)
	}
	if got := f.NetTraffic(); got != sum || got != want {
		t.Errorf("NetTraffic = %d, tier sum %d, bytes sent off-node %d", got, sum, want)
	}
}

// TestSimRackUplinkBottleneck lowers the rack uplink below the NIC and
// checks that cross-rack transfers slow down to it while same-rack
// transfers don't — i.e. the tier links actually sit on the path.
func TestSimRackUplinkBottleneck(t *testing.T) {
	cfg := testConfig(8)
	topo := testTopo8()
	topo.RackBandwidth = 50e6 // half the test NIC
	topo.RackLatency = 0
	cfg.Topology = topo
	f := NewSim(cfg)
	var sameRack, crossRack float64
	f.Run(func(ctx *Ctx) {
		before := ctx.Now()
		ctx.RPC(1, 0, 10e6)
		sameRack = ctx.Now() - before
		before = ctx.Now()
		ctx.RPC(2, 0, 10e6)
		crossRack = ctx.Now() - before
	})
	if !almostEq(sameRack, 0.102) {
		t.Errorf("same-rack RPC took %v, want 0.102 (NIC-bound)", sameRack)
	}
	if !almostEq(crossRack, 0.202) {
		t.Errorf("cross-rack RPC took %v, want 0.202 (uplink-bound)", crossRack)
	}
	// The 10 MB flowed as the response, node 2 -> node 0: out through
	// rack 1's uplink, in through rack 0's downlink.
	if f.rackUp[1].TotalBytes != 10e6 {
		t.Errorf("rack 1 uplink carried %v, want 10e6", f.rackUp[1].TotalBytes)
	}
	if f.zoneUp[0].TotalBytes != 0 {
		t.Errorf("zone 0 uplink carried %v, want 0", f.zoneUp[0].TotalBytes)
	}
}

// TestSimSingleDomainTopologyMatchesFlat pins the degenerate case: a
// cluster whose whole population shares one zone and one rack behaves
// byte- and clock-identically to the flat, topology-less cluster.
func TestSimSingleDomainTopologyMatchesFlat(t *testing.T) {
	run := func(topo Topology) (elapsed float64, traffic int64) {
		cfg := testConfig(6)
		cfg.Topology = topo
		f := NewSim(cfg)
		f.Run(func(ctx *Ctx) {
			for i := 1; i < 6; i++ {
				ctx.RPC(NodeID(i), 4096, 10e6)
			}
			elapsed = ctx.Now()
		})
		return elapsed, f.NetTraffic()
	}
	single := Topology{Zones: 1, RacksPerZone: 1, NodesPerRack: 6,
		RackBandwidth: 1e6, RackLatency: 9, ZoneBandwidth: 1e6, ZoneLatency: 9}
	fe, ft := run(Topology{})
	se, st := run(single)
	if fe != se || ft != st {
		t.Fatalf("single-domain topology diverged from flat: (%v, %d) vs (%v, %d)",
			se, st, fe, ft)
	}
}
