package experiments

import (
	"testing"

	"blobvfs/internal/cluster"
)

// TestDegradedAllInstancesComplete: the headline property — killing
// half the provider pool mid-deployment must not lose a single
// instance, and the resilience machinery must actually have engaged.
func TestDegradedAllInstancesComplete(t *testing.T) {
	p := Quick()
	healthy := RunDegraded(p, Crowd{Instances: 48, Sharing: true})
	hit := RunDegraded(p, Crowd{Instances: 48, Sharing: true, Kill: 8})

	for _, pt := range []CrowdPoint{healthy, hit} {
		if pt.Booted != pt.Instances {
			t.Fatalf("killed=%d: %d of %d instances booted", pt.Kill, pt.Booted, pt.Instances)
		}
	}
	if healthy.Failovers != 0 || healthy.Rereplicated != 0 || healthy.FailedFetches != 0 {
		t.Fatalf("healthy run exercised the failure path: %+v", healthy)
	}
	if hit.Failovers == 0 {
		t.Error("degraded run recorded no failovers")
	}
	if hit.Rereplicated == 0 {
		t.Error("degraded run re-replicated nothing")
	}
	if hit.DeadDropped != 0 {
		t.Errorf("provider kills dropped %d cohort records (providers are not cohort members)", hit.DeadDropped)
	}
	if hit.FailedFetches != 0 {
		t.Errorf("degraded run failed %d fetches for good", hit.FailedFetches)
	}
	// Failure may cost time, within bounds, but no direction is asserted:
	// the kills also thin the convoy on the surviving disks, and the run
	// can end sooner for it.
	if hit.Completion > 1.5*healthy.Completion {
		t.Errorf("killing providers slowed completion beyond 1.5x: %.2f vs %.2f",
			hit.Completion, healthy.Completion)
	}
}

// TestDegradedDeterministic: the scenario is bit-for-bit repeatable —
// same seed, same kills, same counters — fault injection included.
func TestDegradedDeterministic(t *testing.T) {
	p := Quick()
	dc := Crowd{Instances: 16, Providers: 8, Kill: 3, Sharing: true}
	a := RunDegraded(p, dc)
	b := RunDegraded(p, dc)
	if a != b {
		t.Fatalf("degraded scenario not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestDegradedNoFaultMatchesFlashCrowd: with no fault plan the
// degraded scenario IS the flash crowd — byte-identical timing,
// traffic and counters. This pins the zero-cost property of the fault
// subsystem: a healthy run pays nothing for the failover machinery.
func TestDegradedNoFaultMatchesFlashCrowd(t *testing.T) {
	p := Quick()
	deg := RunDegraded(p, Crowd{
		Instances: 32, Providers: 8, Replicas: 1, Sharing: true,
	})
	fc := RunFlashCrowd(p, Crowd{
		Instances: 32, Providers: 8, Sharing: true,
	})
	if deg.Booted != deg.Instances {
		t.Fatalf("%d of %d instances booted", deg.Booted, deg.Instances)
	}
	if deg.Completion != fc.Completion || deg.AvgBoot != fc.AvgBoot || deg.TrafficGB != fc.TrafficGB {
		t.Errorf("timing diverged without faults: degraded %.6f/%.6f/%.6f vs flash %.6f/%.6f/%.6f",
			deg.Completion, deg.AvgBoot, deg.TrafficGB, fc.Completion, fc.AvgBoot, fc.TrafficGB)
	}
	if deg.ProviderReads != fc.ProviderReads || deg.PeerReads != fc.PeerReads ||
		deg.MaxProviderReads != fc.MaxProviderReads {
		t.Errorf("read counters diverged without faults: degraded %d/%d/%d vs flash %d/%d/%d",
			deg.ProviderReads, deg.MaxProviderReads, deg.PeerReads,
			fc.ProviderReads, fc.MaxProviderReads, fc.PeerReads)
	}
	if deg.Failovers != 0 || deg.Rereplicated != 0 || deg.FailedFetches != 0 || deg.FetchRetries != 0 {
		t.Errorf("no-fault run touched the failure path: %+v", deg)
	}
}

// TestDegradedKillsLandInsideTheDeployment: the kill plan counts from
// the instant the deployment arms it, not from the start of the
// simulation — the base-image upload in newEnv has moved the clock past
// most of the plan by then, and kills read as absolute time all fired
// back to back at deployment start. A watcher polls liveness beside the
// deployment; step bounds how late it sees a death.
func TestDegradedKillsLandInsideTheDeployment(t *testing.T) {
	const step = 1.0 / 64
	dc := degradedCrowd
	dc.Instances, dc.Kill, dc.Sharing = 16, 8, true
	env := dedicatedEnv(Quick(), dc)
	var start float64
	var deaths []float64
	env.Run(func(ctx *cluster.Ctx) {
		start = ctx.Now()
		if start < degradedKillStart {
			t.Fatalf("the upload ended at %.3f s: the scenario no longer starts after its first planned kill, test something else", start)
		}
		if err := env.Repo.ArmFaults(ctx); err != nil {
			t.Fatal(err)
		}
		watcher := ctx.Go("watcher", ctx.Node(), func(cc *cluster.Ctx) {
			dead := make(map[int]bool)
			for len(dead) < dc.Kill {
				for n := 0; n < env.Fab.Nodes(); n++ {
					if !dead[n] && !env.Repo.NodeAlive(cluster.NodeID(n)) {
						dead[n] = true
						deaths = append(deaths, cc.Now())
					}
				}
				cc.Sleep(step)
			}
		})
		env.deploy(ctx)
		ctx.Wait(watcher)
	})
	if len(deaths) != dc.Kill {
		t.Fatalf("saw %d deaths, want %d", len(deaths), dc.Kill)
	}
	for i, at := range deaths {
		if i == 0 && at < start+degradedKillStart {
			t.Errorf("first kill %.3f s after deployment start, planned %.0f s", at-start, degradedKillStart)
		}
		if i > 0 && at-deaths[i-1] < degradedKillEvery-2*step {
			t.Errorf("kill %d came %.3f s after the one before, planned %.0f s", i, at-deaths[i-1], degradedKillEvery)
		}
	}
}

// TestCrowdPointRecordsItsDefaults: a crowd point carries the
// configuration the scenario ran, the sizes it filled in included.
func TestCrowdPointRecordsItsDefaults(t *testing.T) {
	p := Quick()
	for _, tc := range []struct {
		name string
		got  Crowd
		want Crowd
	}{
		{"flash", RunFlashCrowd(p, Crowd{Instances: 8}).Crowd,
			Crowd{Instances: 8, Providers: 8, Replicas: 1, MetaReplicas: 1}},
		{"degraded", RunDegraded(p, Crowd{Instances: 8, Sharing: true}).Crowd,
			Crowd{Instances: 8, Providers: 16, Replicas: 2, MetaReplicas: 1, Sharing: true}},
		{"metaoutage", RunMetaOutage(p, Crowd{Instances: 8}).Crowd,
			Crowd{Instances: 8, Providers: 16, Replicas: 2, Zones: rackedZones, MetaReplicas: 2, Aware: true}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s recorded %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

// TestCrowdRejectsWhatItsScenarioFixes: a caller sets only the fields
// its scenario lets it choose. A field the scenario fixes is rejected,
// not recorded as run: a flash crowd has no kill schedule, a dedicated
// pool no topology, and the metadata outage and the cross-zone crowd
// run one fixed pool.
func TestCrowdRejectsWhatItsScenarioFixes(t *testing.T) {
	p := Quick()
	for _, tc := range []struct {
		name string
		run  func(Params, Crowd) CrowdPoint
		c    Crowd
	}{
		{"flash", RunFlashCrowd, Crowd{Instances: 8, Kill: 1}},
		{"flash", RunFlashCrowd, Crowd{Instances: 8, Replicas: 2}},
		{"flash", RunFlashCrowd, Crowd{Instances: 8, Aware: true}},
		{"degraded", RunDegraded, Crowd{Instances: 8, Zones: 2}},
		{"degraded", RunDegraded, Crowd{Instances: 8, KillRack: true}},
		{"degraded", RunDegraded, Crowd{Instances: 8, Kill: 16}},
		{"metaoutage", RunMetaOutage, Crowd{Instances: 8, Providers: 8}},
		{"metaoutage", RunMetaOutage, Crowd{Instances: 8, MetaReplicas: 3}},
		{"crosszone", RunCrossZone, Crowd{Instances: 6, Providers: 6}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted %+v", tc.name, tc.c)
				}
			}()
			tc.run(p, tc.c)
		}()
	}
}
