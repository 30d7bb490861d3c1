package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/vmmodel"
	"blobvfs/internal/workloads"
)

// Fig8Setting is one bar group of Fig. 8.
type Fig8Setting int

// The two settings of §5.5.
const (
	Uninterrupted Fig8Setting = iota
	SuspendResume
)

// String returns the setting's label.
func (s Fig8Setting) String() string {
	if s == Uninterrupted {
		return "Uninterrupted"
	}
	return "Suspend/Resume"
}

// Fig8Result maps (setting, approach) to the Monte Carlo deployment's
// completion time in seconds.
type Fig8Result struct {
	Instances  int
	Completion map[Fig8Setting]map[Approach]float64
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
	res := &Fig8Result{
		Instances:  instances,
		Completion: map[Fig8Setting]map[Approach]float64{Uninterrupted: {}, SuspendResume: {}},
	}
	for _, a := range []Approach{TaktukPreprop, QcowOverPVFS, OurApproach} {
		res.Completion[Uninterrupted][a] = runFig8Uninterrupted(p, instances, a)
	}
	for _, a := range []Approach{QcowOverPVFS, OurApproach} {
		res.Completion[SuspendResume][a] = runFig8SuspendResume(p, instances, a)
	}
	return res
}

func runFig8Uninterrupted(p Params, n int, a Approach) float64 {
	env := NewEnv(p, n, a)
	var completion float64
	env.Run(func(ctx *cluster.Ctx) {
		start := ctx.Now()
		dep := env.deploy(ctx)
		err := env.Orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
			return workloads.RunMonteCarloPhase(cc, inst.Disk, p.MonteCarlo, p.MonteCarlo.ComputeSeconds)
		})
		if err != nil {
			panic(err)
		}
		completion = ctx.Now() - start
	})
	return completion
}

func runFig8SuspendResume(p Params, n int, a Approach) float64 {
	env := NewEnv(p, n, a)
	half := p.MonteCarlo.ComputeSeconds / 2
	var completion float64
	env.Run(func(ctx *cluster.Ctx) {
		start := ctx.Now()
		dep := env.deploy(ctx)
		// First half of the computation.
		err := env.Orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
			return workloads.RunMonteCarloPhase(cc, inst.Disk, p.MonteCarlo, half)
		})
		if err != nil {
			panic(err)
		}
		// Snapshot everything, then terminate.
		if _, err := env.Orch.SnapshotAll(ctx, dep.Instances); err != nil {
			panic(err)
		}
		// Resume every instance on the next node over (fresh caches:
		// nothing of the image is local there), reboot, re-read the
		// saved state, and finish the computation.
		errs := make([]error, n)
		var tasks []cluster.Task
		for i := range dep.Instances {
			i := i
			inst := dep.Instances[i]
			newNode := env.Nodes[(i+1)%len(env.Nodes)]
			tasks = append(tasks, ctx.Go("resume", newNode, func(cc *cluster.Ctx) {
				errs[i] = resumeInstance(cc, env, inst, newNode, i, half)
			}))
		}
		ctx.WaitAll(tasks)
		for _, err := range errs {
			if err != nil {
				panic(err)
			}
		}
		completion = ctx.Now() - start
	})
	return completion
}

// resumeInstance restores one instance from its snapshot on a fresh
// node and runs the remaining computation.
func resumeInstance(cc *cluster.Ctx, env *Env, inst *middleware.Instance, node cluster.NodeID, i int, remaining float64) error {
	p := env.P
	var disk vmmodel.VirtualDisk
	switch b := env.Backend.(type) {
	case *middleware.MirrorBackend:
		d := inst.Disk.(*blobvfs.Disk)
		// The committed snapshot is a standalone raw image: mirror it.
		reopened, err := b.OpenOn(cc, node, d.Current())
		if err != nil {
			return err
		}
		disk = reopened
	case *middleware.QcowBackend:
		// A fresh CoW image over the base; the instance's saved state
		// lives in its snapshot file on PVFS and is read back below.
		nd, err := b.Provision(cc, i, node)
		if err != nil {
			return err
		}
		disk = nd
	default:
		return fmt.Errorf("experiments: resume unsupported for backend %T", env.Backend)
	}
	// Reboot the instance on the fresh node.
	vm := &vmmodel.VM{Node: node, Disk: disk}
	trace := env.Orch.TraceFor(i)
	if err := vm.Boot(cc, trace); err != nil {
		return err
	}
	// Recover the intermediate results.
	switch b := env.Backend.(type) {
	case *middleware.MirrorBackend:
		if err := disk.Read(cc, p.MonteCarlo.SaveOffset, p.MonteCarlo.SaveBytes); err != nil {
			return err
		}
	case *middleware.QcowBackend:
		snap := b.LastSnapshot(i)
		if snap == "" {
			return fmt.Errorf("experiments: instance %d has no snapshot to resume from", i)
		}
		f, err := b.FS.Open(cc, snap)
		if err != nil {
			return err
		}
		if err := f.ReadAt(cc, nil, 0, min(p.MonteCarlo.SaveBytes, f.Size())); err != nil {
			return err
		}
	}
	return workloads.RunMonteCarloPhase(cc, disk, p.MonteCarlo, remaining)
}

// Table renders Fig. 8.
func (r *Fig8Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig 8: Monte Carlo completion time (s), %d instances", r.Instances),
		Columns: []string{"setting", TaktukPreprop.String(), QcowOverPVFS.String(), OurApproach.String()},
	}
	row := func(s Fig8Setting) {
		cells := []string{s.String()}
		for _, a := range []Approach{TaktukPreprop, QcowOverPVFS, OurApproach} {
			if v, ok := r.Completion[s][a]; ok {
				cells = append(cells, ftoa(v))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	row(Uninterrupted)
	row(SuspendResume)
	return t
}
