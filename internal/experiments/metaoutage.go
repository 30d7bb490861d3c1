package experiments

import "blobvfs"

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

// The metadata-outage scenario's fixed shape: one pool of 16 stores
// chunks AND hosts the metadata tier, both replicated twice (the
// version manager gets MetaReplicas-1 journal standbys as well). Its
// kill schedule: the first provider kill lands at 0.4 s — inside the
// disk-open wave, where the batched metadata descents happen, so reads
// actually race the outage — the rest follow every 0.15 s, and the
// rack kill falls between them.
var metaOutageCrowd = Crowd{Providers: 16, Replicas: 2, Zones: rackedZones, MetaReplicas: 2, Aware: true}

const (
	metaOutageKillStart  = 0.4
	metaOutageKillEvery  = 0.15
	metaOutageRackKillAt = metaOutageKillStart + 0.3
)

// RunMetaOutage deploys c.Instances concurrent instances of one image
// with replicated metadata while the fault plan takes out c.Kill of the
// metadata providers and (with c.KillRack) one full compute rack, and
// reports whether the control plane rode it out: failed descents must
// stay zero while every instance completes. With no kills the scenario
// is the healthy baseline at the same replication degrees. The rack
// kill is scoped by the layout's topology, so the scenario always runs
// topology-aware.
func RunMetaOutage(p Params, c Crowd) CrowdPoint {
	c = c.shaped(metaOutageCrowd, Crowd{Instances: c.Instances, Kill: c.Kill, KillRack: c.KillRack, Sharing: c.Sharing})
	// The victims are drawn from the experiment seed, like the degraded
	// scenario's; the rack kill is one scoped plan entry the topology
	// expands — deliberately a compute rack (the middle instance rack),
	// so the metadata tier loses exactly the Kill staggered members and
	// the rack loss stresses the data and sharing paths. Plan times
	// count from the arming instant, at deployment start: the kill
	// schedule lands inside the deployment's disk-open wave (where the
	// metadata descents happen), not in the image population before it.
	l := rackedLayout(c.Instances, c.Providers)
	plan := staggeredKills(p.Seed+11, l.pool, c.Kill, metaOutageKillStart, metaOutageKillEvery)
	if c.KillRack {
		plan = append(plan, blobvfs.KillRackAt(metaOutageRackKillAt, racksFor(c.Instances)/2))
	}
	return deployCrowd(crowdEnv(p, c, l, plan), c)
}
