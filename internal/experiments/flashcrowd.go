package experiments

// This file implements the flash-crowd scenario §7 of the paper points
// at: a very large number of instances of the same image deployed
// concurrently against a storage pool much smaller than the
// deployment. Unlike the Fig. 4 setup — where the storage service
// aggregates every compute node's disk, so provider capacity grows
// with the sweep — the flash crowd keeps a small dedicated provider
// pool (the "registry", as in oc-mirror's mirror-to-disk flow), so
// every demand fetch of a hot boot chunk lands on the same few nodes
// and the per-provider load scales linearly with the crowd. The
// peer-to-peer sharing layer (internal/p2p) is the pressure relief:
// with it enabled, provider reads per chunk drop to the first few
// fetches that seed the cohort.

// flashProviders is the flash crowd's default dedicated pool size; the
// churn scenario runs on the same pool.
const flashProviders = 8

// RunFlashCrowd deploys c.Instances concurrent instances of the same
// image over a cluster with a dedicated c.Providers-node storage pool
// (default 8) and one service node (version manager + p2p tracker),
// and reports where the chunk traffic landed. The chunk replication
// degree is p.Replicas, with one metadata copy; nothing is killed.
func RunFlashCrowd(p Params, c Crowd) CrowdPoint {
	c = c.shaped(Crowd{Providers: flashProviders, Replicas: p.Replicas, MetaReplicas: 1},
		Crowd{Instances: c.Instances, Providers: c.Providers, Sharing: c.Sharing})
	return deployCrowd(dedicatedEnv(p, c), c)
}
