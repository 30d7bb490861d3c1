package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/metrics"
)

// This file implements the degraded-deployment scenario: the
// flash-crowd multideployment rerun against a repository that loses
// provider nodes mid-flight. The paper targets IaaS clouds whose
// repository nodes fail during deployment, yet every figure assumes a
// healthy cluster; this scenario makes "all instances still complete"
// a measured property. The fault plan kills K of the providers at
// staggered times (which providers is drawn from the experiment seed,
// so runs are bit-for-bit repeatable); each death triggers failover on
// reads, synchronous re-replication of the chunks the dead node held,
// and retraction of any sharing-cohort state. The p2p layer doubles as
// the last-resort source for chunks whose every provider copy is gone.

// The degraded scenario's fixed shape: the pool size and replication
// degree it defaults to, and the kill schedule — the first death 2 s
// after the deployment starts, well inside the boot phase, then one
// per second.
const (
	degradedProviders = 16
	degradedReplicas  = 2
	degradedKillStart = 2.0
	degradedKillEvery = 1.0
)

// DegradedConfig parameterizes one degraded run.
type DegradedConfig struct {
	// Instances is the deployment fan-out (the crowd size).
	Instances int
	// Providers is the dedicated provider pool size (default 16).
	Providers int
	// Replicas is the chunk replication degree (default 2 — a pool
	// that loses nodes needs redundancy to lose no data).
	Replicas int
	// Kill is how many providers the fault plan kills. Which ones is
	// drawn from the seed.
	Kill int
	// Sharing toggles the p2p chunk-sharing layer. Degraded runs
	// normally keep it on: cohort peers are the only source for a
	// chunk whose every provider copy died.
	Sharing bool
}

// RunDegraded deploys dc.Instances concurrent instances of one image
// while the fault plan kills dc.Kill of the dc.Providers storage nodes
// mid-deployment, and reports whether (and at what cost) the
// deployment still completed. With dc.Kill = 0 the scenario degenerates
// to the healthy flash crowd — same costs, byte-identical outputs.
func RunDegraded(p Params, dc DegradedConfig) CrowdPoint {
	env := degradedEnv(p, &dc)
	return deployCrowd(env, CrowdPoint{
		Instances: dc.Instances,
		Providers: dc.Providers,
		Killed:    dc.Kill,
		Sharing:   dc.Sharing,
	})
}

// degradedEnv fills in dc's defaults and builds the scenario's cluster:
// base image uploaded, the kill plan configured and not yet armed.
func degradedEnv(p Params, dc *DegradedConfig) *Env {
	if dc.Instances < 1 {
		panic("experiments: degraded deployment needs at least one instance")
	}
	if dc.Providers <= 0 {
		dc.Providers = degradedProviders
	}
	if dc.Replicas <= 0 {
		dc.Replicas = degradedReplicas
	}
	if dc.Kill < 0 || dc.Kill >= dc.Providers {
		panic(fmt.Sprintf("experiments: cannot kill %d of %d providers", dc.Kill, dc.Providers))
	}

	l := dedicatedLayout(dc.Instances, dc.Providers)
	opts := append(sharingOption(dc.Sharing), blobvfs.WithReplicas(dc.Replicas))
	if dc.Kill > 0 {
		plan := staggeredKills(p.Seed+7, l.pool, dc.Kill, degradedKillStart, degradedKillEvery)
		opts = append(opts, blobvfs.WithFaultPlan(plan...))
	}
	return newEnv(p, l, OurApproach, opts...)
}

// DegradedTable renders a healthy-vs-degraded comparison.
func DegradedTable(points []CrowdPoint) *metrics.Table {
	return table("Degraded deployment: flash crowd while providers fail mid-run", points,
		crowdInstances,
		crowdProviders,
		col[CrowdPoint]{"killed", func(pt CrowdPoint) string { return itoa(pt.Killed) }},
		crowdBooted,
		crowdCompletion,
		col[CrowdPoint]{"failovers", func(pt CrowdPoint) string { return i64(pt.Failovers) }},
		col[CrowdPoint]{"re-replicated", func(pt CrowdPoint) string { return i64(pt.Rereplicated) }},
		col[CrowdPoint]{"failed fetches", func(pt CrowdPoint) string { return i64(pt.FailedFetches) }},
		crowdPeerReads,
	)
}
