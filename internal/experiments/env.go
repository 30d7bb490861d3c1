package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/nfs"
	"blobvfs/internal/pvfs"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// Approach selects a storage backend for an experiment run.
type Approach int

// The three compared systems of §5.2.
const (
	OurApproach Approach = iota
	QcowOverPVFS
	TaktukPreprop
)

// String returns the paper's series label.
func (a Approach) String() string {
	switch a {
	case OurApproach:
		return "our approach, 256K chunks"
	case QcowOverPVFS:
		return "qcow2 over PVFS, 256K stripe"
	case TaktukPreprop:
		return "taktuk pre-propagation"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// jitterMin and jitterMax bound instance launch staggering in seconds
// (hypervisor initialization skew, §3.1.3, which the paper describes
// but does not quantify).
const jitterMin, jitterMax = 0.1, 0.6

// Env is one configured simulation: a fabric laid out as the scenario
// declared, the storage backend of the chosen approach primed with one
// base image, and an orchestrator ready to launch one instance per
// Nodes entry. Setup costs are excluded: the traffic counter is reset
// and times are deltas.
type Env struct {
	P       Params
	Fab     *cluster.Sim
	Nodes   []cluster.NodeID // nodes hosting VM instances, in launch order
	Backend middleware.Backend
	Orch    *middleware.Orchestrator
	// Repo, Base and Sys are set for OurApproach runs (the other
	// backends have no repository).
	Repo *blobvfs.Repo
	Base blobvfs.Snapshot
	Sys  *blob.System
}

// NewEnv builds the paper's setup for n instances under the given
// approach: storage aggregated over max(p.MaxInstances, n) compute
// nodes (the full Nancy cluster), instances on the first n; opts as newEnv.
func NewEnv(p Params, n int, a Approach, opts ...blobvfs.Option) *Env {
	if n < 1 {
		panic("experiments: need at least one instance")
	}
	return newEnv(p, aggregatedLayout(max(p.MaxInstances, n), n), a, opts...)
}

// newEnv builds the simulation for one layout under the given
// approach. The heavy lifting (image upload or PVFS/NFS priming) runs
// inside the simulation before the environment is handed back. opts
// (replication overrides, sharing, topology awareness, fault plans)
// are applied after the base options, so they win; only OurApproach
// consults them.
func newEnv(p Params, l layout, a Approach, opts ...blobvfs.Option) *Env {
	cfg := cluster.DefaultConfig(l.size)
	if p.WriteBuffer > 0 {
		cfg.WriteBuffer = p.WriteBuffer
	}
	cfg.Topology = l.topo
	fab := cluster.NewSim(cfg)
	env := &Env{P: p, Fab: fab, Nodes: l.inst}

	if a == OurApproach {
		repo, err := blobvfs.Open(fab, append([]blobvfs.Option{
			blobvfs.WithProviders(l.pool...),
			blobvfs.WithManager(l.service),
			blobvfs.WithReplicas(p.Replicas),
			blobvfs.WithChunkSize(p.ChunkSize),
		}, opts...)...)
		if err != nil {
			panic(err)
		}
		env.Repo, env.Sys = repo, repo.System()
	}

	fab.Run(func(ctx *cluster.Ctx) {
		switch a {
		case OurApproach:
			base, err := env.Repo.CreateSynthetic(ctx, "base", p.ImageSize)
			if err != nil {
				panic(err)
			}
			env.Base = base
			env.Backend = middleware.NewMirrorBackend(env.Repo, base)
		case QcowOverPVFS:
			fs := pvfs.New(l.pool, p.ChunkSize)
			if _, err := fs.Create(ctx, "base.raw", p.ImageSize, false); err != nil {
				panic(err)
			}
			env.Backend = middleware.NewQcowBackend(fs, "base.raw")
		case TaktukPreprop:
			srv := nfs.NewServer(l.service)
			if err := srv.Put(ctx, "base.raw", p.ImageSize, nil); err != nil {
				panic(err)
			}
			env.Backend = middleware.NewPrepropBackend(srv, p.ImageSize)
		}
	})
	fab.ResetTraffic()

	// All instances boot the same OS image: one shared access pattern,
	// per-instance think-time jitter forked in launch order.
	baseOps := vmmodel.GenBootTrace(sim.NewRNG(p.Seed), p.Boot)
	traceRNG := sim.NewRNG(p.Seed + 1)
	jitRNG := sim.NewRNG(p.Seed + 2)
	env.Orch = &middleware.Orchestrator{
		Backend: env.Backend,
		Nodes:   env.Nodes,
		TraceFor: func(i int) []vmmodel.TraceOp {
			return vmmodel.WithThinkJitter(baseOps, traceRNG.Fork(), p.Boot.TotalThink)
		},
		StartJitter: func(i int) float64 {
			return jitRNG.Uniform(jitterMin, jitterMax)
		},
	}
	return env
}

// Run executes fn as the root activity of the environment's simulation.
func (e *Env) Run(fn func(ctx *cluster.Ctx)) { e.Fab.Run(fn) }

// deploy launches one instance per Nodes entry through the middleware.
// A scenario has no way to go on without its deployment, so a failure
// panics.
func (e *Env) deploy(ctx *cluster.Ctx) *middleware.DeployResult {
	dep, err := e.Orch.Deploy(ctx)
	if err != nil {
		panic(fmt.Sprintf("experiments: deployment failed: %v", err))
	}
	return dep
}

// provisionAll provisions one disk per instance node concurrently,
// without booting it — the set-up of the snapshot experiments, never
// part of a measured time. With a non-nil wr every instance then
// applies the §5.3 local modifications (Params.SnapshotDiff) from its
// own stream, forked off wr in instance order.
func (e *Env) provisionAll(ctx *cluster.Ctx, wr *sim.RNG) []*middleware.Instance {
	instances := make([]*middleware.Instance, len(e.Nodes))
	var rngs []*sim.RNG
	for i, node := range e.Nodes {
		instances[i] = &middleware.Instance{Index: i, Node: node}
		if wr != nil {
			rngs = append(rngs, wr.Fork())
		}
	}
	err := e.Orch.RunOnAll(ctx, instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
		var err error
		inst.Disk, err = e.Backend.Provision(cc, inst.Index, inst.Node)
		if err != nil || wr == nil {
			return err
		}
		return e.P.snapshotWrites(cc, inst.Disk, 0, rngs[inst.Index])
	})
	if err != nil {
		panic(err)
	}
	return instances
}

// hotWindow is the working set the churn and sync scenarios confine
// their rewrites to, the first 4×SnapshotDiff bytes of the image: a
// VM's churn concentrates on logs, spool and configuration that are
// rewritten cycle after cycle, which is exactly what makes old
// snapshots' chunks unreachable and reclaimable.
func (p Params) hotWindow() int64 { return min(4*p.SnapshotDiff, p.ImageSize) }

// snapshotWrites applies the §5.3 local-modification pattern to the
// first window bytes of a disk (window 0: the whole disk): SnapshotDiff
// bytes of configuration files and contextualization state, written as
// chunk-sized sequential bursts at scattered spots. Bursts are aligned
// to the chunk: the guest writes whole small files, so by snapshot
// time the dirty chunks are fully local and the measured snapshot cost
// is shipping the diff, exactly as in the paper's experiment. The churn
// and sync scenarios confine it to their hot window: writes that land
// on the same spots cycle after cycle are what make old snapshots'
// chunks unreachable once retention retires them.
func (p Params) snapshotWrites(ctx *cluster.Ctx, disk vmmodel.VirtualDisk, window int64, rng *sim.RNG) error {
	runLen := int64(p.ChunkSize)
	if window <= 0 || window > disk.Size() {
		window = disk.Size()
	}
	slots := max(window/runLen, 1)
	for written := int64(0); written < p.SnapshotDiff; written += runLen {
		l := min(runLen, p.SnapshotDiff-written)
		if err := disk.Write(ctx, rng.Int63n(slots)*runLen, l); err != nil {
			return err
		}
	}
	return nil
}
