package experiments

import (
	"reflect"
	"testing"
)

// TestMetaOutageAllInstancesComplete: the headline property — with
// replicated metadata, killing half the metadata providers plus a full
// compute rack mid-deployment must not fail a single descent or lose a
// single instance, and the control-plane resilience machinery must
// actually have engaged.
func TestMetaOutageAllInstancesComplete(t *testing.T) {
	p := Quick()
	healthy := RunMetaOutage(p, Crowd{Instances: 24})
	outage := RunMetaOutage(p, Crowd{Instances: 24, Kill: 8, KillRack: true})

	for _, pt := range []CrowdPoint{healthy, outage} {
		if pt.Booted != pt.Instances {
			t.Fatalf("killed=%d: %d of %d instances booted", pt.Kill, pt.Booted, pt.Instances)
		}
		if pt.FailedDescents != 0 {
			t.Fatalf("killed=%d: %d metadata descents found no live replica", pt.Kill, pt.FailedDescents)
		}
	}
	if healthy.MetaFailovers != 0 || healthy.MetaRereplicated != 0 || healthy.Failovers != 0 {
		t.Fatalf("healthy run exercised the failure path: %+v", healthy)
	}
	if outage.MetaFailovers == 0 {
		t.Error("outage run recorded no metadata failovers")
	}
	if outage.MetaRereplicated == 0 {
		t.Error("outage run re-replicated no metadata")
	}
	// Losing half the control plane costs time, but not completeness.
	if outage.Completion <= healthy.Completion {
		t.Errorf("the outage did not slow completion: %.2f vs %.2f",
			outage.Completion, healthy.Completion)
	}
}

// TestMetaOutageDeterministic: the scenario is bit-for-bit repeatable —
// same seed, same kills, same counters — fault injection, rack
// expansion and repair sweeps included.
func TestMetaOutageDeterministic(t *testing.T) {
	p := Quick()
	mc := Crowd{Instances: 16, Kill: 6, KillRack: true, Sharing: true}
	a := RunMetaOutage(p, mc)
	b := RunMetaOutage(p, mc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
