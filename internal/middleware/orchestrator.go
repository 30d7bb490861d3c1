package middleware

import (
	"fmt"

	"blobvfs/internal/cluster"
	"blobvfs/internal/vmmodel"
)

// Instance is one deployed VM instance under orchestration.
type Instance struct {
	Index int
	Node  cluster.NodeID
	Disk  vmmodel.VirtualDisk

	ProvisionTime float64 // seconds spent in Provision
	BootTime      float64 // hypervisor launch → fully booted (§5.2 metric)
	BootDoneAt    float64 // absolute virtual time boot finished
}

// DeployResult aggregates a multideployment run.
type DeployResult struct {
	Instances []*Instance
	// PrepareTime is the initialization phase (broadcast) duration.
	PrepareTime float64
	// Completion is deploy start → last instance booted (§5.2's
	// "time-to-complete booting for all instances").
	Completion float64
}

// BootTimes extracts per-instance boot durations.
func (r *DeployResult) BootTimes() []float64 {
	out := make([]float64, len(r.Instances))
	for i, inst := range r.Instances {
		out[i] = inst.BootTime
	}
	return out
}

// SnapshotResult aggregates a multisnapshotting run.
type SnapshotResult struct {
	// Times holds per-instance snapshot durations.
	Times []float64
	// Completion is the duration until the last snapshot finished.
	Completion float64
}

// Orchestrator drives the deployment/snapshot patterns over a backend.
type Orchestrator struct {
	Backend Backend
	// Nodes lists the compute node of each instance (one VM per node,
	// as in the paper's experiments).
	Nodes []cluster.NodeID
	// TraceFor returns instance i's boot trace. Traces should differ
	// per instance only in their generator stream; the natural skew is
	// modeled by StartJitter plus think-time jitter in the trace.
	TraceFor func(i int) []vmmodel.TraceOp
	// StartJitter returns how long after deployment start the
	// hypervisor of instance i is launched (models staggered launch
	// and hypervisor initialization; §3.1.3).
	StartJitter func(i int) float64
}

// Deploy runs the multideployment pattern: the backend's global
// initialization, then all instances provisioned and booted
// concurrently, one per node.
func (o *Orchestrator) Deploy(ctx *cluster.Ctx) (*DeployResult, error) {
	if len(o.Nodes) == 0 {
		return nil, fmt.Errorf("middleware: no instances to deploy")
	}
	res := &DeployResult{Instances: make([]*Instance, len(o.Nodes))}
	for i, node := range o.Nodes {
		res.Instances[i] = &Instance{Index: i, Node: node}
	}
	start := ctx.Now()
	if err := o.Backend.Prepare(ctx, o.Nodes); err != nil {
		return nil, err
	}
	res.PrepareTime = ctx.Now() - start

	err := fanOut(ctx, res.Instances, func(cc *cluster.Ctx, k int) error {
		inst := res.Instances[k]
		if o.StartJitter != nil {
			if d := o.StartJitter(k); d > 0 {
				cc.Sleep(d)
			}
		}
		t0 := cc.Now()
		disk, err := o.Backend.Provision(cc, k, inst.Node)
		if err != nil {
			return err
		}
		inst.Disk = disk
		inst.ProvisionTime = cc.Now() - t0
		vm := &vmmodel.VM{Node: inst.Node, Disk: disk}
		t1 := cc.Now()
		if err := vm.Boot(cc, o.TraceFor(k)); err != nil {
			return err
		}
		inst.BootTime = cc.Now() - t1
		inst.BootDoneAt = cc.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Completion = ctx.Now() - start
	return res, nil
}

// SnapshotAll runs the multisnapshotting pattern: every instance's
// local modifications are persisted concurrently, synchronized to
// start at the same time (§5.3).
func (o *Orchestrator) SnapshotAll(ctx *cluster.Ctx, instances []*Instance) (*SnapshotResult, error) {
	res := &SnapshotResult{Times: make([]float64, len(instances))}
	start := ctx.Now()
	err := fanOut(ctx, instances, func(cc *cluster.Ctx, k int) error {
		inst := instances[k]
		t0 := cc.Now()
		err := o.Backend.Snapshot(cc, inst.Index, inst.Node, inst.Disk)
		res.Times[k] = cc.Now() - t0
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Completion = ctx.Now() - start
	return res, nil
}

// RunOnAll executes fn concurrently on every instance's node (the
// application phase of the deployment), waits for every activity and
// returns the first error in instance order.
func (o *Orchestrator) RunOnAll(ctx *cluster.Ctx, instances []*Instance, fn func(cc *cluster.Ctx, inst *Instance) error) error {
	return fanOut(ctx, instances, func(cc *cluster.Ctx, k int) error { return fn(cc, instances[k]) })
}

// fanOut is the one per-instance fan-out: it spawns fn(k) on
// instances[k]'s node for every k, in instance order, joins them all,
// and only then returns the first error in instance order.
func fanOut(ctx *cluster.Ctx, instances []*Instance, fn func(cc *cluster.Ctx, k int) error) error {
	errs := make([]error, len(instances))
	tasks := make([]cluster.Task, len(instances))
	for k, inst := range instances {
		tasks[k] = ctx.Go("instance", inst.Node, func(cc *cluster.Ctx) { errs[k] = fn(cc, k) })
	}
	ctx.WaitAll(tasks)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
