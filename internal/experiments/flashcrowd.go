package experiments

import "blobvfs/internal/metrics"

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

// FlashCrowdConfig parameterizes one flash-crowd run.
type FlashCrowdConfig struct {
	// Instances is the deployment fan-out (the crowd size).
	Instances int
	// Providers is the dedicated provider pool size (default 8).
	Providers int
	// Sharing toggles the p2p chunk-sharing layer.
	Sharing bool
}

// RunFlashCrowd deploys fc.Instances concurrent instances of the same
// image over a cluster with a dedicated fc.Providers-node storage pool
// and one service node (version manager + p2p tracker), and reports
// where the chunk traffic landed.
func RunFlashCrowd(p Params, fc FlashCrowdConfig) CrowdPoint {
	if fc.Instances < 1 {
		panic("experiments: flash crowd needs at least one instance")
	}
	if fc.Providers <= 0 {
		fc.Providers = flashProviders
	}
	env := newEnv(p, dedicatedLayout(fc.Instances, fc.Providers), OurApproach, sharingOption(fc.Sharing)...)
	return deployCrowd(env, CrowdPoint{
		Instances: fc.Instances,
		Providers: fc.Providers,
		Sharing:   fc.Sharing,
	})
}

// FlashCrowdTable renders a sharing-off/sharing-on comparison.
func FlashCrowdTable(points []CrowdPoint) *metrics.Table {
	return table("Flash crowd: concurrent multideployment against a small provider pool", points,
		crowdInstances,
		crowdProviders,
		crowdSharing,
		crowdCompletion,
		crowdProviderReads,
		crowdHottest,
		crowdPeerReads,
	)
}
