package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the fault-injection substrate: a per-node liveness
// registry and a schedulable fault plan. The IaaS clouds the paper
// targets lose repository nodes mid-deployment; the plan lets a
// scenario kill (and revive) nodes at fixed points in virtual time, so
// "handles node failure" becomes a measurable property of a run
// instead of an assumption. Everything is deterministic: events fire
// in sorted time order from one injector activity, and listeners run
// in registration order.

// FaultKind says what a FaultEvent does to its node.
type FaultKind uint8

const (
	// FaultKill marks the node failed: services subscribed to the
	// liveness registry stop using it (providers stop serving reads,
	// cohort peers stop being selected) until a FaultRevive.
	FaultKill FaultKind = iota
	// FaultRevive brings a killed node back.
	FaultRevive
)

// String renders the kind for plan dumps and test failures.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultRevive:
		return "revive"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultScope says what a FaultEvent's Node field addresses: a single
// node, or a whole failure domain of the cluster topology that expands
// to its member nodes when the plan is armed.
type FaultScope uint8

const (
	// ScopeNode targets one node; Node is a NodeID. The zero value, so
	// plans built before scoped events existed keep their meaning.
	ScopeNode FaultScope = iota
	// ScopeRack targets every node of one rack; Node holds the global
	// rack index (see Topology.Rack).
	ScopeRack
	// ScopeZone targets every node of one zone; Node holds the zone
	// index.
	ScopeZone
)

// String renders the scope for plan dumps and test failures.
func (s FaultScope) String() string {
	switch s {
	case ScopeNode:
		return "node"
	case ScopeRack:
		return "rack"
	case ScopeZone:
		return "zone"
	}
	return fmt.Sprintf("FaultScope(%d)", uint8(s))
}

// FaultEvent schedules one liveness transition at an absolute virtual
// time (seconds since the run started). Scoped events (ScopeRack,
// ScopeZone) stand for one transition per member node and require an
// enabled topology to resolve; ExpandFaults performs the expansion.
type FaultEvent struct {
	At    float64
	Node  NodeID
	Kind  FaultKind
	Scope FaultScope
}

// KillAt returns the event that fails node at time t.
func KillAt(t float64, node NodeID) FaultEvent {
	return FaultEvent{At: t, Node: node, Kind: FaultKill}
}

// ReviveAt returns the event that brings node back at time t.
func ReviveAt(t float64, node NodeID) FaultEvent {
	return FaultEvent{At: t, Node: node, Kind: FaultRevive}
}

// KillRackAt returns the event that fails every node of the given rack
// (global rack index) at time t.
func KillRackAt(t float64, rack int) FaultEvent {
	return FaultEvent{At: t, Node: NodeID(rack), Kind: FaultKill, Scope: ScopeRack}
}

// ReviveRackAt returns the event that brings a whole rack back at time t.
func ReviveRackAt(t float64, rack int) FaultEvent {
	return FaultEvent{At: t, Node: NodeID(rack), Kind: FaultRevive, Scope: ScopeRack}
}

// KillZoneAt returns the event that fails every node of the given zone
// at time t.
func KillZoneAt(t float64, zone int) FaultEvent {
	return FaultEvent{At: t, Node: NodeID(zone), Kind: FaultKill, Scope: ScopeZone}
}

// ReviveZoneAt returns the event that brings a whole zone back at time t.
func ReviveZoneAt(t float64, zone int) FaultEvent {
	return FaultEvent{At: t, Node: NodeID(zone), Kind: FaultRevive, Scope: ScopeZone}
}

// ExpandFaults resolves scoped events into one node-scoped event per
// member node (ascending node order, all at the scoped event's time),
// leaving node-scoped events untouched. A plan with no scoped events is
// returned as-is. Execute's time sort is stable, so the ascending
// member order survives into execution and the expansion is
// deterministic.
func ExpandFaults(events []FaultEvent, topo Topology) []FaultEvent {
	scoped := false
	for _, ev := range events {
		if ev.Scope != ScopeNode {
			scoped = true
			break
		}
	}
	if !scoped {
		return events
	}
	out := make([]FaultEvent, 0, len(events))
	for _, ev := range events {
		first, count := 0, 0
		switch ev.Scope {
		case ScopeNode:
			out = append(out, ev)
			continue
		case ScopeRack:
			count = topo.NodesPerRack
			first = int(ev.Node) * count
		case ScopeZone:
			count = topo.RacksPerZone * topo.NodesPerRack
			first = int(ev.Node) * count
		}
		for n := first; n < first+count; n++ {
			out = append(out, FaultEvent{At: ev.At, Node: NodeID(n), Kind: ev.Kind})
		}
	}
	return out
}

// FaultPlanError reports a redundant transition in a fault plan: a
// kill of a node already dead at that point in the plan (kill+kill) or
// a revive of a node that is up (revive-before-kill). Such plans are
// almost always a scenario bug — the duplicate event would silently
// execute as a no-op — so validation rejects them.
type FaultPlanError struct {
	Node NodeID
	At   float64
	Kind FaultKind
}

// Error renders the redundant transition.
func (e *FaultPlanError) Error() string {
	state := "dead"
	if e.Kind == FaultRevive {
		state = "up"
	}
	return fmt.Sprintf("cluster: redundant fault event: %s of node %d at t=%g, but the node is already %s there",
		e.Kind, e.Node, e.At, state)
}

// ValidateFaults checks a fault plan against a cluster size and
// topology. Scoped events need an enabled topology to name their
// failure domain. The plan is then expanded and simulated in execution
// order (the stable time sort Execute applies); a redundant transition
// is rejected with a *FaultPlanError rather than left to silently
// no-op at run time.
func ValidateFaults(events []FaultEvent, nodes int, topo Topology) error {
	for _, ev := range events {
		if ev.At < 0 {
			return fmt.Errorf("cluster: fault event at negative time %g", ev.At)
		}
		if ev.Kind != FaultKill && ev.Kind != FaultRevive {
			return fmt.Errorf("cluster: fault event with unknown kind %d", ev.Kind)
		}
		switch ev.Scope {
		case ScopeNode:
			if int(ev.Node) < 0 || int(ev.Node) >= nodes {
				return fmt.Errorf("cluster: fault event for node %d outside cluster of %d", ev.Node, nodes)
			}
		case ScopeRack:
			if !topo.Enabled() {
				return fmt.Errorf("cluster: rack-scoped fault event needs a topology")
			}
			if int(ev.Node) < 0 || int(ev.Node) >= topo.Racks() {
				return fmt.Errorf("cluster: fault event for rack %d outside topology of %d racks", ev.Node, topo.Racks())
			}
		case ScopeZone:
			if !topo.Enabled() {
				return fmt.Errorf("cluster: zone-scoped fault event needs a topology")
			}
			if int(ev.Node) < 0 || int(ev.Node) >= topo.Zones {
				return fmt.Errorf("cluster: fault event for zone %d outside topology of %d zones", ev.Node, topo.Zones)
			}
		default:
			return fmt.Errorf("cluster: fault event with unknown scope %d", ev.Scope)
		}
	}
	plan := append([]FaultEvent(nil), ExpandFaults(events, topo)...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	up := make([]bool, nodes)
	for i := range up {
		up[i] = true
	}
	for _, ev := range plan {
		// A kill of a dead node or a revive of a live one would no-op.
		after := ev.Kind == FaultRevive
		if up[ev.Node] == after {
			return &FaultPlanError{Node: ev.Node, At: ev.At, Kind: ev.Kind}
		}
		up[ev.Node] = after
	}
	return nil
}

// Liveness tracks which nodes of a cluster are up. Services subscribe
// with OnChange; Kill and Revive flip a node's state and invoke every
// listener — in registration order, outside any lock, so a listener
// may perform fabric operations (re-replication transfers, retraction
// broadcasts) without stalling the discrete-event scheduler. State is
// one atomic flag per node: Alive sits on the p2p holder-selection
// hot path of every fetch, so it must stay contention-free even on a
// repo that never configures a fault plan.
type Liveness struct {
	alive []atomic.Bool

	mu        sync.Mutex // guards listeners and serializes transitions
	listeners []func(ctx *Ctx, node NodeID, alive bool)
}

// NewLiveness returns a registry with all nodes up.
func NewLiveness(nodes int) *Liveness {
	l := &Liveness{alive: make([]atomic.Bool, nodes)}
	for i := range l.alive {
		l.alive[i].Store(true)
	}
	return l
}

// Alive reports whether node is up. Nodes outside the registry are
// reported down. A nil registry — a service no fault injection is wired
// to — has every node up.
func (l *Liveness) Alive(node NodeID) bool {
	if l == nil {
		return true
	}
	return int(node) >= 0 && int(node) < len(l.alive) && l.alive[node].Load()
}

// AliveCount returns how many nodes are currently up.
func (l *Liveness) AliveCount() int {
	n := 0
	for i := range l.alive {
		if l.alive[i].Load() {
			n++
		}
	}
	return n
}

// OnChange subscribes fn to liveness transitions. Listeners run in
// registration order on the activity that performs the Kill or Revive.
func (l *Liveness) OnChange(fn func(ctx *Ctx, node NodeID, alive bool)) {
	l.mu.Lock()
	l.listeners = append(l.listeners, fn)
	l.mu.Unlock()
}

// Kill marks node failed and notifies the listeners. It reports
// whether the state changed (killing a dead or out-of-range node is a
// no-op).
func (l *Liveness) Kill(ctx *Ctx, node NodeID) bool { return l.set(ctx, node, false) }

// Revive marks node up again and notifies the listeners.
func (l *Liveness) Revive(ctx *Ctx, node NodeID) bool { return l.set(ctx, node, true) }

func (l *Liveness) set(ctx *Ctx, node NodeID, alive bool) bool {
	if int(node) < 0 || int(node) >= len(l.alive) {
		return false
	}
	// The mutex serializes concurrent transitions (so two racing kills
	// invoke the listeners once) without being touched by Alive readers.
	l.mu.Lock()
	if !l.alive[node].CompareAndSwap(!alive, alive) {
		l.mu.Unlock()
		return false
	}
	listeners := make([]func(ctx *Ctx, node NodeID, alive bool), len(l.listeners))
	copy(listeners, l.listeners)
	l.mu.Unlock()
	for _, fn := range listeners {
		fn(ctx, node, alive)
	}
	return true
}

// Execute spawns the fault-injector activity: it walks the plan in
// time order, sleeps until each event is due and applies it. Events
// already due fire immediately; equal-time events keep their plan
// order (sort is stable). The returned task finishes after the last
// event's listeners have run.
//
// Times are virtual: on the Live fabric, which has no clock (Sleep is
// a no-op and Now is always 0), the whole plan fires back-to-back in
// time order as soon as Execute runs. Timed outage windows need the
// Sim fabric.
func (l *Liveness) Execute(ctx *Ctx, events []FaultEvent) Task {
	plan := append([]FaultEvent(nil), events...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return ctx.Go("fault-injector", ctx.Node(), func(cc *Ctx) {
		for _, ev := range plan {
			if d := ev.At - cc.Now(); d > 0 {
				cc.Sleep(d)
			}
			switch ev.Kind {
			case FaultKill:
				l.Kill(cc, ev.Node)
			case FaultRevive:
				l.Revive(cc, ev.Node)
			}
		}
	})
}
