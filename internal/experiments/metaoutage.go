package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/metrics"
)

// This file implements the metadata-outage scenario: the flash-crowd
// multideployment rerun against a repository whose *control plane*
// fails mid-flight. The degraded scenario (degraded.go) proved the
// chunk data path survives provider deaths; here the same pool hosts
// the metadata tier, the repo runs with metadata replication degree 2
// (WithMetaReplicas), and the fault plan kills half the metadata
// providers one by one plus — through a single rack-scoped plan entry —
// one full compute rack. Every segment-tree descent that lands on a
// dead replica must fail over and every lost tree-node copy must be
// re-replicated; the acceptance gate is that all instances still
// complete with zero failed descents. The healthy twin (no kills, same
// replication) is the completion-time baseline the outage is judged
// against.

// The metadata-outage scenario's fixed shape: one pool stores chunks
// AND hosts the metadata tier, both replicated twice (the version
// manager gets MetaReplicas-1 journal standbys as well). The first
// provider kill lands at 0.4 s — inside the disk-open wave, where the
// batched metadata descents happen, so reads actually race the outage —
// the rest follow every 0.15 s, and the rack kill falls between them.
const (
	metaOutageProviders    = 16
	metaOutageReplicas     = 2
	metaOutageMetaReplicas = 2
	metaOutageKillStart    = 0.4
	metaOutageKillEvery    = 0.15
	metaOutageRackKillAt   = metaOutageKillStart + 0.3
)

// MetaOutageConfig parameterizes one metadata-outage run.
type MetaOutageConfig struct {
	// Instances is the deployment fan-out (the crowd size).
	Instances int
	// KillMeta is how many providers the fault plan kills, staggered
	// (which ones is drawn from the seed). 0 together with
	// KillRack=false is the healthy baseline.
	KillMeta int
	// KillRack additionally fails one full compute rack — the middle
	// instance rack — as a single rack-scoped plan entry.
	KillRack bool
	// Sharing toggles the p2p chunk-sharing layer.
	Sharing bool
}

// RunMetaOutage deploys mc.Instances concurrent instances of one image
// with replicated metadata while the fault plan takes out mc.KillMeta
// of the metadata providers and (with mc.KillRack) one full compute
// rack, and reports whether the control plane rode it out: failed
// descents must stay zero while every instance completes. With no
// kills the scenario is the healthy baseline at the same replication
// degrees.
func RunMetaOutage(p Params, mc MetaOutageConfig) CrowdPoint {
	if mc.Instances < 1 {
		panic("experiments: metadata-outage deployment needs at least one instance")
	}
	if mc.KillMeta < 0 || mc.KillMeta >= metaOutageProviders {
		panic(fmt.Sprintf("experiments: cannot kill %d of %d metadata providers", mc.KillMeta, metaOutageProviders))
	}

	// The victims are drawn from the experiment seed, like the degraded
	// scenario's; the rack kill is one scoped plan entry the topology
	// expands — deliberately a compute rack (the middle instance rack),
	// so the metadata tier loses exactly the KillMeta staggered members
	// and the rack loss stresses the data and sharing paths.
	l := rackedLayout(mc.Instances, metaOutageProviders)
	plan := staggeredKills(p.Seed+11, l.pool, mc.KillMeta, metaOutageKillStart, metaOutageKillEvery)
	if mc.KillRack {
		plan = append(plan, blobvfs.KillRackAt(metaOutageRackKillAt, racksFor(mc.Instances)/2))
	}
	opts := append(sharingOption(mc.Sharing),
		blobvfs.WithReplicas(metaOutageReplicas),
		blobvfs.WithMetaReplicas(metaOutageMetaReplicas),
		blobvfs.WithTopology(l.topo))
	// Plan times count from the arming instant, at deployment start:
	// the kill schedule lands inside the deployment's disk-open wave
	// (where the metadata descents happen), not in the image population
	// before it.
	if len(plan) > 0 {
		opts = append(opts, blobvfs.WithFaultPlan(plan...))
	}
	return deployCrowd(newEnv(p, l, OurApproach, opts...), CrowdPoint{
		Instances:    mc.Instances,
		Providers:    metaOutageProviders,
		MetaReplicas: metaOutageMetaReplicas,
		Killed:       mc.KillMeta,
		RackKilled:   mc.KillRack,
		Sharing:      mc.Sharing,
	})
}

// MetaOutageTable renders a healthy-vs-outage comparison; the first
// row is the healthy baseline the delta column is computed against.
func MetaOutageTable(points []CrowdPoint) *metrics.Table {
	return table("Metadata outage: flash crowd with replicated metadata while metadata providers and a rack fail", points,
		crowdInstances,
		col[CrowdPoint]{"meta replicas", func(pt CrowdPoint) string { return itoa(pt.MetaReplicas) }},
		col[CrowdPoint]{"killed meta", func(pt CrowdPoint) string { return itoa(pt.Killed) }},
		col[CrowdPoint]{"rack killed", func(pt CrowdPoint) string { return yesNo(pt.RackKilled) }},
		crowdBooted,
		crowdCompletion,
		col[CrowdPoint]{"delta (s)", func(pt CrowdPoint) string { return ftoa(pt.Completion - points[0].Completion) }},
		col[CrowdPoint]{"meta failovers", func(pt CrowdPoint) string { return i64(pt.MetaFailovers) }},
		col[CrowdPoint]{"meta re-replicated", func(pt CrowdPoint) string { return i64(pt.MetaRereplicated) }},
		col[CrowdPoint]{"failed descents", func(pt CrowdPoint) string { return i64(pt.FailedDescents) }},
	)
}
