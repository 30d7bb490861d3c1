package cluster

import (
	"errors"
	"reflect"
	"testing"
)

// TestLivenessTransitions: kill/revive flip state exactly once each
// and notify listeners in registration order.
func TestLivenessTransitions(t *testing.T) {
	fab := NewLive(4)
	lv := NewLiveness(4)
	var log []string
	lv.OnChange(func(_ *Ctx, n NodeID, alive bool) {
		if alive {
			log = append(log, "a:up")
		} else {
			log = append(log, "a:down")
		}
	})
	lv.OnChange(func(_ *Ctx, n NodeID, alive bool) {
		log = append(log, "b")
	})
	fab.Run(func(ctx *Ctx) {
		if !lv.Alive(2) {
			t.Fatal("fresh registry must report nodes alive")
		}
		if !lv.Kill(ctx, 2) {
			t.Fatal("first kill must report a transition")
		}
		if lv.Kill(ctx, 2) {
			t.Fatal("second kill of a dead node must be a no-op")
		}
		if lv.Alive(2) {
			t.Fatal("killed node still alive")
		}
		if got := lv.AliveCount(); got != 3 {
			t.Fatalf("AliveCount = %d, want 3", got)
		}
		if !lv.Revive(ctx, 2) || lv.Revive(ctx, 2) {
			t.Fatal("revive must transition exactly once")
		}
		if lv.Kill(ctx, 99) || lv.Revive(ctx, -1) {
			t.Fatal("out-of-range nodes must be no-ops")
		}
	})
	want := []string{"a:down", "b", "a:up", "b"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("listener log = %v, want %v", log, want)
	}
	if lv.Alive(99) {
		t.Fatal("out-of-range node reported alive")
	}
}

// TestFaultPlanExecution: events fire in time order at their scheduled
// virtual times, including events already due when the injector
// starts.
func TestFaultPlanExecution(t *testing.T) {
	fab := NewSim(DefaultConfig(4))
	lv := NewLiveness(4)
	type hit struct {
		at    float64
		node  NodeID
		alive bool
	}
	var hits []hit
	fab.Run(func(ctx *Ctx) {
		lv.OnChange(func(cc *Ctx, n NodeID, alive bool) {
			hits = append(hits, hit{cc.Now(), n, alive})
		})
		ctx.Sleep(1.0)
		// Plan deliberately out of order; the 0.5s event is already due.
		task := lv.Execute(ctx, []FaultEvent{
			KillAt(3.0, 1),
			ReviveAt(4.5, 1),
			KillAt(0.5, 2),
		})
		ctx.Wait(task)
		if got := ctx.Now(); got != 4.5 {
			t.Errorf("injector finished at %g, want 4.5", got)
		}
	})
	want := []hit{{1.0, 2, false}, {3.0, 1, false}, {4.5, 1, true}}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("events = %v, want %v", hits, want)
	}
}

// TestValidateFaults rejects malformed plans.
func TestValidateFaults(t *testing.T) {
	flat := Topology{}
	if err := ValidateFaults([]FaultEvent{KillAt(1, 3)}, 4, flat); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, bad := range [][]FaultEvent{
		{KillAt(-1, 0)},
		{KillAt(1, 4)},
		{ReviveAt(1, -1)},
		{{At: 1, Node: 0, Kind: FaultKind(9)}},
		{{At: 1, Node: 0, Kind: FaultKill, Scope: FaultScope(9)}},
		{KillRackAt(1, 0)}, // scoped event on a flat cluster
		{KillZoneAt(1, 0)},
	} {
		if err := ValidateFaults(bad, 4, flat); err == nil {
			t.Errorf("plan %v accepted", bad)
		}
	}
	if FaultKill.String() != "kill" || FaultRevive.String() != "revive" {
		t.Error("FaultKind strings wrong")
	}
	if ScopeNode.String() != "node" || ScopeRack.String() != "rack" || ScopeZone.String() != "zone" {
		t.Error("FaultScope strings wrong")
	}
}

// TestValidateFaultsRedundantTransitions: plans whose events would
// silently no-op — a kill of a node already dead at that point or a
// revive of a live one — are rejected with a typed *FaultPlanError.
func TestValidateFaultsRedundantTransitions(t *testing.T) {
	topo := Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
		RackBandwidth: 1, ZoneBandwidth: 1}
	cases := []struct {
		name string
		plan []FaultEvent
		bad  bool
	}{
		{"kill then revive then kill", []FaultEvent{KillAt(1, 0), ReviveAt(2, 0), KillAt(3, 0)}, false},
		{"kill twice", []FaultEvent{KillAt(1, 0), KillAt(2, 0)}, true},
		{"revive before kill", []FaultEvent{ReviveAt(1, 0)}, true},
		{"revive twice", []FaultEvent{KillAt(1, 0), ReviveAt(2, 0), ReviveAt(3, 0)}, true},
		{"out-of-order times still simulate in time order", []FaultEvent{ReviveAt(2, 0), KillAt(1, 0)}, false},
		{"two nodes independent", []FaultEvent{KillAt(1, 0), KillAt(1, 1), ReviveAt(2, 1)}, false},
		{"node kill inside killed rack", []FaultEvent{KillRackAt(1, 0), KillAt(2, 1)}, true},
		{"rack kill then zone kill overlapping", []FaultEvent{KillRackAt(1, 0), KillZoneAt(2, 0)}, true},
		{"rack kill then rack revive", []FaultEvent{KillRackAt(1, 1), ReviveRackAt(2, 1)}, false},
		{"zone kill then zone revive", []FaultEvent{KillZoneAt(1, 0), ReviveZoneAt(2, 0)}, false},
		{"zone revive over a live zone", []FaultEvent{ReviveZoneAt(1, 1)}, true},
		{"zone kill disjoint from rack kill", []FaultEvent{KillRackAt(1, 0), KillZoneAt(2, 1)}, false},
	}
	for _, tc := range cases {
		err := ValidateFaults(tc.plan, 8, topo)
		if tc.bad {
			var planErr *FaultPlanError
			if !errors.As(err, &planErr) {
				t.Errorf("%s: err = %v, want *FaultPlanError", tc.name, err)
			} else if planErr.Error() == "" {
				t.Errorf("%s: empty error text", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: valid plan rejected: %v", tc.name, err)
		}
	}
}

// TestExpandFaults: rack- and zone-scoped events expand to their
// member nodes in ascending order; plain plans pass through untouched.
func TestExpandFaults(t *testing.T) {
	topo := Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
		RackBandwidth: 1, ZoneBandwidth: 1}
	plain := []FaultEvent{KillAt(1, 3)}
	if got := ExpandFaults(plain, topo); !reflect.DeepEqual(got, plain) {
		t.Fatalf("plain plan changed: %v", got)
	}
	got := ExpandFaults([]FaultEvent{KillRackAt(1, 1), KillZoneAt(2, 1), ReviveAt(3, 0)}, topo)
	want := []FaultEvent{
		KillAt(1, 2), KillAt(1, 3),
		KillAt(2, 4), KillAt(2, 5), KillAt(2, 6), KillAt(2, 7),
		ReviveAt(3, 0),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion = %v, want %v", got, want)
	}
	// The expanded plan executes like any other: the whole rack dies.
	fab := NewSim(DefaultConfig(8))
	lv := NewLiveness(8)
	if len(lv.alive) != 8 {
		t.Fatalf("registry covers %d nodes, want 8", len(lv.alive))
	}
	fab.Run(func(ctx *Ctx) {
		ctx.Wait(lv.Execute(ctx, ExpandFaults([]FaultEvent{KillRackAt(1, 1)}, topo)))
	})
	for n := NodeID(0); n < 8; n++ {
		wantAlive := n != 2 && n != 3
		if lv.Alive(n) != wantAlive {
			t.Errorf("node %d alive = %v, want %v", n, lv.Alive(n), wantAlive)
		}
	}
}
