package experiments

import (
	"cmp"
	"errors"
	"fmt"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// Crowd is the configuration of one crowd deployment — the flash crowd
// and its degraded, cross-zone and metadata-outage variants. A caller
// sets Instances, Sharing and the few fields its scenario lets it
// choose; the scenario fills in the rest (shaped) and reports the
// result as the Crowd of its CrowdPoint, so a record carries the
// configuration it ran.
type Crowd struct {
	Instances    int  // the crowd size (all zones together)
	Providers    int  // storage pool size (all zones together)
	Replicas     int  // chunk replication degree
	Zones        int  // availability zones of the fabric (0: one flat cluster)
	MetaReplicas int  // metadata replication degree
	Kill         int  // providers the fault plan kills mid-run
	KillRack     bool // the fault plan also kills one compute rack
	Aware        bool // topology-aware placement and selection
	Sharing      bool // p2p chunk sharing
}

// shaped returns the crowd a scenario runs for the caller's c: the
// scenario's shape with every field c sets laid over it, a zero size
// keeping the shape's. settable is c with each field the scenario fixes
// zeroed, so shaped panics if c sets one of those, or has no instance.
func (c Crowd) shaped(shape, settable Crowd) Crowd {
	if c != settable || c.Instances < 1 {
		panic(fmt.Sprintf("experiments: the scenario cannot run the crowd %+v", c))
	}
	shape.Instances, shape.Kill, shape.KillRack, shape.Sharing = c.Instances, c.Kill, c.KillRack, c.Sharing
	shape.Providers = cmp.Or(c.Providers, shape.Providers)
	shape.Replicas = cmp.Or(c.Replicas, shape.Replicas)
	shape.Aware = shape.Aware || c.Aware
	return shape
}

// CrowdPoint reports one crowd deployment: the Crowd it ran, and
// everything deployCrowd measured. Each scenario's table selects its
// columns.
type CrowdPoint struct {
	Crowd

	Booted     int     // instances that completed their boot (must be all)
	AvgBoot    float64 // mean per-instance boot time (s)
	Completion float64 // deploy start → last instance booted (s)
	TrafficGB  float64 // total network traffic (GB)
	Steps      int64   // simulator events executed by the deployment

	// TierBytes breaks all off-node traffic down by locality tier:
	// TierBytes[TierRemote] crossed a zone interconnect.
	TierBytes [cluster.NumTiers]int64

	ProviderReads    int64 // chunk reads served by the provider pool
	MaxProviderReads int64 // ... by its hottest member (the hot-spot)
	// ProviderTierReads splits provider reads by reader→provider
	// distance. Only a topology-aware repo can attribute tiers, so
	// flat-policy runs book everything under TierRack like the flat
	// cluster does.
	ProviderTierReads [cluster.NumTiers]int64
	PeerReads         int64 // chunk reads served by cohort peers
	MetaGets          int64 // metadata service operations (after batching)
	MetaNodes         int64 // tree nodes served (MetaNodes/MetaGets = batching factor)

	Failovers     int64 // reads a dead primary pushed onto another copy
	Rereplicated  int64 // chunk copies re-created after a death
	FailedFetches int64 // reads that found no live provider copy
	FetchRetries  int64 // mirror fetches re-attempted after a failure
	DeadDropped   int64 // cohort location records dropped for dead peers

	MetaFailovers    int64 // metadata gets a dead replica pushed onto a survivor
	MetaRereplicated int64 // tree-node copies restored by repair sweeps
	FailedDescents   int64 // metadata gets with no live replica (must be 0)
}

// The crowd columns two or more crowd tables show. Each crowd table
// selects from them; a column only one table shows sits in that
// table's list.
var (
	crowdInstances     = col[CrowdPoint]{"instances", func(pt CrowdPoint) string { return itoa(pt.Instances) }}
	crowdProviders     = col[CrowdPoint]{"providers", func(pt CrowdPoint) string { return itoa(pt.Providers) }}
	crowdSharing       = col[CrowdPoint]{"p2p sharing", func(pt CrowdPoint) string { return onOff(pt.Sharing) }}
	crowdBooted        = col[CrowdPoint]{"booted", func(pt CrowdPoint) string { return itoa(pt.Booted) }}
	crowdCompletion    = col[CrowdPoint]{"completion (s)", func(pt CrowdPoint) string { return ftoa(pt.Completion) }}
	crowdProviderReads = col[CrowdPoint]{"provider reads", func(pt CrowdPoint) string { return i64(pt.ProviderReads) }}
	crowdHottest       = col[CrowdPoint]{"hottest provider", func(pt CrowdPoint) string { return i64(pt.MaxProviderReads) }}
	crowdPeerReads     = col[CrowdPoint]{"peer reads", func(pt CrowdPoint) string { return i64(pt.PeerReads) }}
)

// sharingOption turns the p2p chunk-sharing layer on with the protocol
// defaults, or returns nothing.
func sharingOption(on bool) []blobvfs.Option {
	if !on {
		return nil
	}
	return []blobvfs.Option{blobvfs.WithP2P()}
}

// staggeredKills plans the death of n members of pool, one every
// `every` seconds from `start`. Which members is drawn from the seed —
// a shuffled pool order, first n entries lose — so runs are bit-for-bit
// repeatable. Kills are sequential so re-replication can restore the
// replication degree between failures. It panics unless some member
// survives.
func staggeredKills(seed int64, pool []cluster.NodeID, n int, start, every float64) []blobvfs.FaultEvent {
	if n < 0 || n >= len(pool) {
		panic(fmt.Sprintf("experiments: cannot kill %d of %d providers", n, len(pool)))
	}
	plan := make([]blobvfs.FaultEvent, n)
	for i, v := range sim.NewRNG(seed).Perm(len(pool))[:n] {
		plan[i] = blobvfs.KillAt(start+float64(i)*every, pool[v])
	}
	return plan
}

// crowdEnv opens the repository c describes over layout l — sharing,
// replication degrees, topology awareness and the fault plan, armed
// later by deployCrowd — and uploads the base image.
func crowdEnv(p Params, c Crowd, l layout, plan []blobvfs.FaultEvent) *Env {
	opts := append(sharingOption(c.Sharing), blobvfs.WithReplicas(c.Replicas), blobvfs.WithMetaReplicas(c.MetaReplicas))
	if c.Aware {
		opts = append(opts, blobvfs.WithTopology(l.topo))
	}
	if len(plan) > 0 {
		opts = append(opts, blobvfs.WithFaultPlan(plan...))
	}
	return newEnv(p, l, OurApproach, opts...)
}

// deployCrowd is the measured phase every crowd scenario shares: arm
// the fault plan if the repo was opened with one, launch the whole
// crowd through the middleware, and read every counter once into the
// point of c. The image upload happened in newEnv and is excluded, as
// in the other experiments.
func deployCrowd(env *Env, c Crowd) CrowdPoint {
	pt := CrowdPoint{Crowd: c}
	sys := env.Sys
	gets0, nodes0 := sys.Meta.Gets.Load(), sys.Meta.NodesServed.Load()
	steps0 := env.Fab.Env().Steps()

	var dep *middleware.DeployResult
	env.Run(func(ctx *cluster.Ctx) {
		// ErrNotFound is a repo without a plan: a healthy run.
		if err := env.Repo.ArmFaults(ctx); err != nil && !errors.Is(err, blobvfs.ErrNotFound) {
			panic(err)
		}
		dep = env.deploy(ctx)
	})

	pt.AvgBoot = metrics.Summarize(dep.BootTimes()).Mean
	pt.Completion = dep.Completion
	pt.TrafficGB = float64(env.Fab.NetTraffic()) / 1e9
	pt.Steps = env.Fab.Env().Steps() - steps0
	for _, inst := range dep.Instances {
		if inst.BootDoneAt > 0 {
			pt.Booted++
		}
		if d, ok := inst.Disk.(*blobvfs.Disk); ok {
			pt.FetchRetries += d.Stats().FetchRetries
		}
	}
	for t := range pt.TierBytes {
		pt.TierBytes[t] = env.Fab.TierTraffic(cluster.Tier(t))
	}
	pt.ProviderReads = sys.Providers.Reads.Load()
	pt.MaxProviderReads = sys.Providers.MaxNodeReads()
	pt.ProviderTierReads = sys.Providers.TierReads()
	pt.MetaGets = sys.Meta.Gets.Load() - gets0
	pt.MetaNodes = sys.Meta.NodesServed.Load() - nodes0
	if st, ok := env.Repo.SharingStats(env.Base.Image); ok {
		pt.PeerReads = st.PeerHits
		pt.DeadDropped = st.DeadDropped
	}
	pt.Failovers = sys.Providers.Failovers.Load()
	pt.Rereplicated = sys.Providers.Rereplicated.Load()
	pt.FailedFetches = sys.Providers.FailedReads.Load()
	pt.MetaFailovers = sys.Meta.Failovers.Load()
	pt.MetaRereplicated = sys.Meta.Rereplicated.Load()
	pt.FailedDescents = sys.Meta.FailedGets.Load()
	return pt
}
