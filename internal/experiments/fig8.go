package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/vmmodel"
	"blobvfs/internal/workloads"
)

// Fig8Result holds the Monte Carlo deployment's completion time in
// seconds per approach, in each setting of §5.5. Prepropagation has no
// suspend/resume entry.
type Fig8Result struct {
	Uninterrupted, SuspendResume map[Approach]float64
}

// RunFig8 executes the real-application experiment of §5.5: a Monte
// Carlo π estimation spread over `instances` workers that periodically
// save intermediate results into their images. In the uninterrupted
// setting the deployment just runs to completion; in suspend/resume
// the deployment is snapshotted halfway, terminated, and resumed on a
// different set of nodes (each instance shifted by one), so all image
// content must be fetched remotely again. Prepropagation is compared
// only in the first setting, as in the paper.
func RunFig8(p Params, instances int) *Fig8Result {
	res := &Fig8Result{Uninterrupted: map[Approach]float64{}, SuspendResume: map[Approach]float64{}}
	for _, a := range []Approach{TaktukPreprop, QcowOverPVFS, OurApproach} {
		res.Uninterrupted[a] = runFig8(p, instances, a, false)
	}
	for _, a := range []Approach{QcowOverPVFS, OurApproach} {
		res.SuspendResume[a] = runFig8(p, instances, a, true)
	}
	return res
}

// runFig8 deploys n instances under a and runs the Monte Carlo
// computation on all of them, returning the deployment's completion
// time. With suspend, the deployment computes half, is snapshotted and
// terminated, and every instance resumes on the next node over for the
// other half.
func runFig8(p Params, n int, a Approach, suspend bool) float64 {
	env := NewEnv(p, n, a)
	compute := p.MonteCarlo.ComputeSeconds
	if suspend {
		compute /= 2
	}
	var completion float64
	env.Run(func(ctx *cluster.Ctx) {
		start := ctx.Now()
		dep := env.deploy(ctx)
		err := env.Orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
			return workloads.RunMonteCarloPhase(cc, inst.Disk, p.MonteCarlo, compute)
		})
		if err != nil {
			panic(err)
		}
		if suspend {
			// Snapshot everything, then terminate.
			if _, err := env.Orch.SnapshotAll(ctx, dep.Instances); err != nil {
				panic(err)
			}
			// Resume every instance on the next node over (fresh caches:
			// nothing of the image is local there), reboot, re-read the
			// saved state, and finish the computation.
			resumed := make([]*middleware.Instance, n)
			for i, inst := range dep.Instances {
				resumed[i] = &middleware.Instance{Index: i, Node: env.Nodes[(i+1)%len(env.Nodes)], Disk: inst.Disk}
			}
			err := env.Orch.RunOnAll(ctx, resumed, func(cc *cluster.Ctx, inst *middleware.Instance) error {
				return resumeInstance(cc, env, inst, compute)
			})
			if err != nil {
				panic(err)
			}
		}
		completion = ctx.Now() - start
	})
	return completion
}

// resumeInstance restores one instance on its fresh node inst.Node,
// from the snapshot of the disk inst.Disk it ran on before, and runs
// the remaining computation.
func resumeInstance(cc *cluster.Ctx, env *Env, inst *middleware.Instance, remaining float64) error {
	mc := env.P.MonteCarlo
	i, node := inst.Index, inst.Node
	var disk vmmodel.VirtualDisk
	var restore func() error // reads the intermediate results back
	switch b := env.Backend.(type) {
	case *middleware.MirrorBackend:
		// The committed snapshot is a standalone raw image: mirror it.
		reopened, err := env.Repo.OpenDisk(cc, node, inst.Disk.(*blobvfs.Disk).Current(), blobvfs.Synthetic())
		if err != nil {
			return err
		}
		disk = reopened
		restore = func() error { return disk.Read(cc, mc.SaveOffset, mc.SaveBytes) }
	case *middleware.QcowBackend:
		// A fresh CoW image over the base; the instance's saved state
		// lives in its snapshot file on PVFS.
		nd, err := b.Provision(cc, i, node)
		if err != nil {
			return err
		}
		disk = nd
		restore = func() error {
			snap := b.LastSnapshot(i)
			if snap == "" {
				return fmt.Errorf("experiments: instance %d has no snapshot to resume from", i)
			}
			f, err := b.FS.Open(cc, snap)
			if err != nil {
				return err
			}
			return f.ReadAt(cc, nil, 0, min(mc.SaveBytes, f.Size()))
		}
	default:
		return fmt.Errorf("experiments: resume unsupported for backend %T", env.Backend)
	}
	// Reboot the instance on the fresh node, then recover the
	// intermediate results.
	vm := &vmmodel.VM{Node: node, Disk: disk}
	if err := vm.Boot(cc, env.Orch.TraceFor(i)); err != nil {
		return err
	}
	if err := restore(); err != nil {
		return err
	}
	return workloads.RunMonteCarloPhase(cc, disk, mc, remaining)
}
