package middleware

import (
	"fmt"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/vmmodel"
)

// Instance is one deployed VM instance under orchestration.
type Instance struct {
	Index int
	Node  cluster.NodeID
	Disk  vmmodel.VirtualDisk
	VM    *vmmodel.VM

	ProvisionTime float64 // seconds spent in Provision
	BootTime      float64 // hypervisor launch → fully booted (§5.2 metric)
	BootDoneAt    float64 // absolute virtual time boot finished
}

// DeployResult aggregates a multideployment run.
type DeployResult struct {
	Backend   string
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
	Backend string
	// Times holds per-instance snapshot durations.
	Times []float64
	// Completion is the duration until the last snapshot finished.
	Completion float64
	// Retired counts snapshot versions retired by the retention policy
	// in this round (0 when no policy is set).
	Retired int
	// GC holds the garbage-collection report of the cycle that ran
	// after retention (nil when no collector is attached).
	GC *blob.GCReport
}

// RetentionPolicy bounds the stored snapshot history per instance:
// after each multisnapshotting round, only the newest KeepLast
// versions of every instance's blob stay live; older ones are retired
// and their exclusively-held storage is reclaimed by the next garbage
// collection. KeepLast 0 disables retention (versions accumulate, as
// in the paper's experiments).
type RetentionPolicy struct {
	KeepLast int
}

// VersionRetirer is the optional backend capability the retention
// policy needs: retiring a disk's old snapshot versions. Only the
// mirror backend implements it; retention over the baseline backends
// is a silent no-op, like their other missing lifecycle features.
type VersionRetirer interface {
	RetireOld(ctx *cluster.Ctx, disk vmmodel.VirtualDisk, keep int) (int, error)
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
	// Retention, when KeepLast > 0, retires old snapshot versions in
	// every SnapshotAll round (backend permitting): each instance
	// retires its own lineage's versions on its own node as soon as its
	// snapshot completes, so a fast instance's lifecycle work proceeds
	// while slow instances are still publishing chunks. A blob's "last
	// K" is per instance, so this needs no barrier.
	Retention RetentionPolicy
	// Collector, when set, runs one garbage-collection cycle after each
	// SnapshotAll round, reclaiming the storage the retired versions
	// held exclusively. It reclaims shared chunks, so unlike retention
	// it runs behind the round's barrier, after every instance finished.
	Collector *blob.Collector
}

// Deploy runs the multideployment pattern: the backend's global
// initialization, then all instances provisioned and booted
// concurrently, one per node.
func (o *Orchestrator) Deploy(ctx *cluster.Ctx) (*DeployResult, error) {
	if len(o.Nodes) == 0 {
		return nil, fmt.Errorf("middleware: no instances to deploy")
	}
	res := &DeployResult{Backend: o.Backend.Name(), Instances: make([]*Instance, len(o.Nodes))}
	start := ctx.Now()
	if err := o.Backend.Prepare(ctx, o.Nodes); err != nil {
		return nil, err
	}
	res.PrepareTime = ctx.Now() - start

	errs := make([]error, len(o.Nodes))
	tasks := make([]cluster.Task, 0, len(o.Nodes))
	for i, node := range o.Nodes {
		i, node := i, node
		tasks = append(tasks, ctx.Go("deploy", node, func(cc *cluster.Ctx) {
			if o.StartJitter != nil {
				if d := o.StartJitter(i); d > 0 {
					cc.Sleep(d)
				}
			}
			inst := &Instance{Index: i, Node: node}
			t0 := cc.Now()
			disk, err := o.Backend.Provision(cc, i, node)
			if err != nil {
				errs[i] = err
				return
			}
			inst.Disk = disk
			inst.ProvisionTime = cc.Now() - t0
			inst.VM = &vmmodel.VM{Node: node, Disk: disk}
			t1 := cc.Now()
			if err := inst.VM.Boot(cc, o.TraceFor(i)); err != nil {
				errs[i] = err
				return
			}
			inst.BootTime = cc.Now() - t1
			inst.BootDoneAt = cc.Now()
			res.Instances[i] = inst
		}))
	}
	ctx.WaitAll(tasks)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Completion = ctx.Now() - start
	return res, nil
}

// SnapshotAll runs the multisnapshotting pattern: every instance's
// local modifications are persisted concurrently, synchronized to
// start at the same time (§5.3).
func (o *Orchestrator) SnapshotAll(ctx *cluster.Ctx, instances []*Instance) (*SnapshotResult, error) {
	res := &SnapshotResult{Backend: o.Backend.Name(), Times: make([]float64, len(instances))}
	errs := make([]error, len(instances))
	start := ctx.Now()
	var vr VersionRetirer
	if o.Retention.KeepLast > 0 {
		vr, _ = o.Backend.(VersionRetirer)
	}
	retired := make([]int, len(instances))
	tasks := make([]cluster.Task, 0, len(instances))
	for k, inst := range instances {
		k, inst := k, inst
		tasks = append(tasks, ctx.Go("snapshot", inst.Node, func(cc *cluster.Ctx) {
			t0 := cc.Now()
			errs[k] = o.Backend.Snapshot(cc, inst.Index, inst.Node, inst.Disk)
			res.Times[k] = cc.Now() - t0
			if errs[k] == nil && vr != nil {
				retired[k], errs[k] = vr.RetireOld(cc, inst.Disk, o.Retention.KeepLast)
			}
		}))
	}
	ctx.WaitAll(tasks)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, n := range retired {
		res.Retired += n
	}
	if o.Collector != nil {
		rep, err := o.Collector.Collect(ctx)
		if err != nil {
			return nil, err
		}
		res.GC = &rep
	}
	res.Completion = ctx.Now() - start
	return res, nil
}

// RunOnAll executes fn concurrently on every instance's node (the
// application phase of the deployment) and waits for completion.
func (o *Orchestrator) RunOnAll(ctx *cluster.Ctx, instances []*Instance, fn func(cc *cluster.Ctx, inst *Instance) error) error {
	errs := make([]error, len(instances))
	tasks := make([]cluster.Task, 0, len(instances))
	for k, inst := range instances {
		k, inst := k, inst
		tasks = append(tasks, ctx.Go("app", inst.Node, func(cc *cluster.Ctx) {
			errs[k] = fn(cc, inst)
		}))
	}
	ctx.WaitAll(tasks)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
