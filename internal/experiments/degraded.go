package experiments

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

// The degraded scenario's shape — by default a pool of 16 providers
// holding two copies of every chunk, since a pool that loses nodes
// needs redundancy to lose no data, and one metadata copy — and its
// kill schedule: the first death 2 s after the deployment starts, well
// inside the boot phase, then one per second.
var degradedCrowd = Crowd{Providers: 16, Replicas: 2, MetaReplicas: 1}

const (
	degradedKillStart = 2.0
	degradedKillEvery = 1.0
)

// RunDegraded deploys c.Instances concurrent instances of one image
// while the fault plan kills c.Kill of the c.Providers storage nodes
// mid-deployment, and reports whether (and at what cost) the
// deployment still completed. Which providers die is drawn from the
// seed. Degraded runs normally keep Sharing on: cohort peers are the
// only source for a chunk whose every provider copy died. With c.Kill
// = 0 the run is the healthy flash crowd — same costs, byte-identical
// outputs — only at the flash crowd's pool and degree (Providers 8,
// Replicas 1); the defaults here, 16 and 2, make a different crowd.
func RunDegraded(p Params, c Crowd) CrowdPoint {
	c = c.shaped(degradedCrowd, Crowd{Instances: c.Instances, Providers: c.Providers, Replicas: c.Replicas, Kill: c.Kill, Sharing: c.Sharing})
	return deployCrowd(dedicatedEnv(p, c), c)
}

// dedicatedEnv builds the cluster of a crowd on a dedicated pool, the
// flash crowd's and the degraded scenario's: base image uploaded, and
// the kill plan of c.Kill providers configured, not yet armed.
func dedicatedEnv(p Params, c Crowd) *Env {
	l := dedicatedLayout(c.Instances, c.Providers)
	return crowdEnv(p, c, l, staggeredKills(p.Seed+7, l.pool, c.Kill, degradedKillStart, degradedKillEvery))
}
