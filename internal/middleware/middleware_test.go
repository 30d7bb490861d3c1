package middleware

import (
	"errors"
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/nfs"
	"blobvfs/internal/pvfs"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// simCluster builds an 8+1-node sim fabric with a boot trace.
func simCluster() (*cluster.Sim, []cluster.NodeID, []vmmodel.TraceOp) {
	fab := cluster.NewSim(cluster.DefaultConfig(9))
	nodes := make([]cluster.NodeID, 8)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
	}
	trace := vmmodel.GenBootTrace(sim.NewRNG(5), vmmodel.BootConfig{
		ImageSize:    64 << 20,
		TouchedBytes: 8 << 20,
		Extents:      16,
		MeanOpLen:    64 << 10,
		WriteOps:     4,
		WriteLen:     4 << 10,
		TotalThink:   0.5,
	})
	return fab, nodes, trace
}

func orchFor(b Backend, nodes []cluster.NodeID, trace []vmmodel.TraceOp) *Orchestrator {
	return &Orchestrator{
		Backend:     b,
		Nodes:       nodes,
		TraceFor:    func(i int) []vmmodel.TraceOp { return trace },
		StartJitter: func(i int) float64 { return float64(i) * 0.01 },
	}
}

func mirrorBackend(t *testing.T, fab *cluster.Sim, nodes []cluster.NodeID) *MirrorBackend {
	t.Helper()
	repo, err := blobvfs.Open(fab,
		blobvfs.WithProviders(nodes...),
		blobvfs.WithManager(cluster.NodeID(8)),
		blobvfs.WithChunkSize(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	var base blobvfs.Snapshot
	fab.Run(func(ctx *cluster.Ctx) {
		base, err = repo.CreateSynthetic(ctx, "base", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
	})
	return NewMirrorBackend(repo, base)
}

func TestMirrorBackendDeployAndSnapshot(t *testing.T) {
	fab, nodes, trace := simCluster()
	b := mirrorBackend(t, fab, nodes)
	orch := orchFor(b, nodes, trace)
	fab.Run(func(ctx *cluster.Ctx) {
		dep, err := orch.Deploy(ctx)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		if len(dep.Instances) != 8 {
			t.Fatalf("instances = %d", len(dep.Instances))
		}
		if dep.PrepareTime != 0 {
			t.Fatalf("lazy backend has prepare time %v", dep.PrepareTime)
		}
		for _, inst := range dep.Instances {
			if inst.BootTime <= 0 {
				t.Fatalf("instance %d boot time %v", inst.Index, inst.BootTime)
			}
		}
		// Write some per-instance state, then global snapshot.
		err = orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *Instance) error {
			return inst.Disk.Write(cc, int64(inst.Index)*1<<20, 512<<10)
		})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := orch.SnapshotAll(ctx, dep.Instances)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if snap.Completion <= 0 || len(snap.Times) != 8 {
			t.Fatalf("snapshot result %+v", snap)
		}
		// Each instance must now own its own lineage (CLONE happened),
		// with one committed version on top of the clone.
		seen := map[blobvfs.ImageID]bool{}
		for _, inst := range dep.Instances {
			d := inst.Disk.(*blobvfs.Disk)
			if d.Image() == b.Base.Image {
				t.Fatal("instance still points at the base image after snapshot")
			}
			if seen[d.Image()] {
				t.Fatal("two instances share a clone lineage")
			}
			seen[d.Image()] = true
			if d.Version() != 2 {
				t.Fatalf("clone version = %d, want 2 (clone v1 + commit v2)", d.Version())
			}
		}
		// A second global snapshot with fresh modifications must not
		// clone again — only commit onto the same lineage.
		err = orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *Instance) error {
			return inst.Disk.Write(cc, 2<<20, 256<<10)
		})
		if err != nil {
			t.Fatal(err)
		}
		lineages := map[int]blobvfs.ImageID{}
		for _, inst := range dep.Instances {
			lineages[inst.Index] = inst.Disk.(*blobvfs.Disk).Image()
		}
		if _, err := orch.SnapshotAll(ctx, dep.Instances); err != nil {
			t.Fatal(err)
		}
		for _, inst := range dep.Instances {
			d := inst.Disk.(*blobvfs.Disk)
			if d.Image() != lineages[inst.Index] {
				t.Fatal("second snapshot cloned again")
			}
			if d.Version() != 3 {
				t.Fatalf("second snapshot version = %d, want 3", d.Version())
			}
		}
		// A snapshot with no new modifications is a no-op commit.
		if _, err := orch.SnapshotAll(ctx, dep.Instances); err != nil {
			t.Fatal(err)
		}
		for _, inst := range dep.Instances {
			if inst.Disk.(*blobvfs.Disk).Version() != 3 {
				t.Fatal("no-op snapshot changed the version")
			}
		}
	})
}

func TestQcowBackendDeployAndSnapshot(t *testing.T) {
	fab, nodes, trace := simCluster()
	fs := pvfs.New(nodes, 256<<10)
	fab.Run(func(ctx *cluster.Ctx) {
		if _, err := fs.Create(ctx, "base.raw", 64<<20, false); err != nil {
			t.Fatal(err)
		}
	})
	b := NewQcowBackend(fs, "base.raw")
	orch := orchFor(b, nodes, trace)
	fab.Run(func(ctx *cluster.Ctx) {
		dep, err := orch.Deploy(ctx)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		err = orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *Instance) error {
			return inst.Disk.Write(cc, 1<<20, 256<<10)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orch.SnapshotAll(ctx, dep.Instances); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		// Snapshot files must exist in PVFS under deterministic names.
		for i := range dep.Instances {
			name := b.SnapName(i, 1)
			if !fs.Exists(name) {
				t.Fatalf("snapshot file %q missing", name)
			}
			if b.LastSnapshot(i) != name {
				t.Fatalf("LastSnapshot(%d) = %q, want %q", i, b.LastSnapshot(i), name)
			}
		}
		if b.LastSnapshot(99) != "" {
			t.Fatal("LastSnapshot of unsnapshotted instance not empty")
		}
	})
}

func TestPrepropBackendBroadcastsBeforeBoot(t *testing.T) {
	fab, nodes, trace := simCluster()
	srv := nfs.NewServer(cluster.NodeID(8))
	fab.Run(func(ctx *cluster.Ctx) {
		if err := srv.Put(ctx, "base.raw", 64<<20, nil); err != nil {
			t.Fatal(err)
		}
	})
	b := NewPrepropBackend(srv, 64<<20)
	orch := orchFor(b, nodes, trace)
	fab.Run(func(ctx *cluster.Ctx) {
		start := ctx.Now()
		dep, err := orch.Deploy(ctx)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		if dep.PrepareTime <= 0 {
			t.Fatal("broadcast took no time")
		}
		// No instance may start booting before the broadcast finishes.
		for _, inst := range dep.Instances {
			if inst.BootDoneAt-inst.BootTime < start+dep.PrepareTime {
				t.Fatalf("instance %d booted during the broadcast", inst.Index)
			}
		}
		// Prepropagation moves at least n full images.
		if got := fab.NetTraffic(); got < int64(len(nodes))*64<<20 {
			t.Fatalf("traffic = %d, want >= %d (full prepropagation)", got, int64(len(nodes))*64<<20)
		}
		// §5.3 rules out its snapshot: it is refused and moves nothing.
		before := fab.NetTraffic()
		if err := b.Snapshot(ctx, 0, nodes[0], dep.Instances[0].Disk); err == nil {
			t.Fatal("prepropagation snapshot succeeded")
		}
		if fab.NetTraffic() != before {
			t.Fatal("refused snapshot moved bytes")
		}
	})
}

func TestDeployValidation(t *testing.T) {
	fab, nodes, trace := simCluster()
	b := mirrorBackend(t, fab, nodes)
	orch := orchFor(b, nil, trace)
	fab.Run(func(ctx *cluster.Ctx) {
		if _, err := orch.Deploy(ctx); err == nil {
			t.Error("deploy with no instances succeeded")
		}
	})
}

func TestSnapshotRejectsForeignDisk(t *testing.T) {
	fab, nodes, _ := simCluster()
	b := mirrorBackend(t, fab, nodes)
	fab.Run(func(ctx *cluster.Ctx) {
		raw := &vmmodel.LocalRaw{NodeID: 0, Bytes: 1 << 20}
		if err := b.Snapshot(ctx, 0, 0, raw); err == nil {
			t.Error("mirror backend snapshotted a LocalRaw disk")
		}
		fs := pvfs.New(nodes, 256<<10)
		qb := NewQcowBackend(fs, "x")
		if err := qb.Snapshot(ctx, 0, 0, raw); err == nil {
			t.Error("qcow backend snapshotted a LocalRaw disk")
		}
	})
}

func TestMirrorBackendResumeOnFreshNode(t *testing.T) {
	fab, nodes, trace := simCluster()
	b := mirrorBackend(t, fab, nodes)
	orch := orchFor(b, nodes[:1], trace)
	fab.Run(func(ctx *cluster.Ctx) {
		dep, err := orch.Deploy(ctx)
		if err != nil {
			t.Fatal(err)
		}
		inst := dep.Instances[0]
		if err := inst.Disk.Write(ctx, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := b.Snapshot(ctx, 0, inst.Node, inst.Disk); err != nil {
			t.Fatal(err)
		}
		d := inst.Disk.(*blobvfs.Disk)
		// Resume the snapshot on a different node (migration, §3.2).
		done := ctx.Go("resume", nodes[3], func(cc *cluster.Ctx) {
			re, err := b.Repo.OpenDisk(cc, nodes[3], d.Current(), blobvfs.Synthetic())
			if err != nil {
				t.Errorf("OpenDisk: %v", err)
				return
			}
			if err := re.Read(cc, 0, 1<<20); err != nil {
				t.Errorf("read resumed image: %v", err)
			}
		})
		ctx.Wait(done)
	})
}

// stubBackend fails instance fail in phase failIn at once; every other
// instance i's call in that phase takes i+1 simulated seconds, so the
// instances after the failed one finish last, and then marks the
// instance done.
type stubBackend struct {
	fail   int
	failIn string // "provision", "snapshot" or "run"
	done   []bool
}

var errStub = errors.New("stub: instance failed")

func (b *stubBackend) act(ctx *cluster.Ctx, i int, phase string) error {
	if phase == b.failIn && i == b.fail {
		return errStub
	}
	ctx.Sleep(float64(i + 1))
	b.done[i] = true
	return nil
}

func (b *stubBackend) Prepare(*cluster.Ctx, []cluster.NodeID) error { return nil }

func (b *stubBackend) Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error) {
	if err := b.act(ctx, i, "provision"); err != nil {
		return nil, err
	}
	return &vmmodel.LocalRaw{NodeID: node, Bytes: 1 << 20}, nil
}

func (b *stubBackend) Snapshot(ctx *cluster.Ctx, i int, _ cluster.NodeID, _ vmmodel.VirtualDisk) error {
	return b.act(ctx, i, "snapshot")
}

// TestFanOutJoinsEveryInstanceBeforeReturningTheError fails instance 3
// in Provision, in Snapshot and in a RunOnAll function in turn: Deploy,
// SnapshotAll and RunOnAll must each return that error, and only once
// every other instance's activity has finished.
func TestFanOutJoinsEveryInstanceBeforeReturningTheError(t *testing.T) {
	fab, nodes, _ := simCluster()
	for _, phase := range []string{"provision", "snapshot", "run"} {
		b := &stubBackend{fail: 3, failIn: phase, done: make([]bool, len(nodes))}
		orch := &Orchestrator{Backend: b, Nodes: nodes, TraceFor: func(int) []vmmodel.TraceOp { return nil }}
		fab.Run(func(ctx *cluster.Ctx) {
			dep, err := orch.Deploy(ctx)
			if phase != "provision" {
				if err != nil {
					t.Fatalf("%s: deploy: %v", phase, err)
				}
				clear(b.done)
				if phase == "snapshot" {
					_, err = orch.SnapshotAll(ctx, dep.Instances)
				} else {
					err = orch.RunOnAll(ctx, dep.Instances, func(cc *cluster.Ctx, inst *Instance) error {
						return b.act(cc, inst.Index, "run")
					})
				}
			}
			if !errors.Is(err, errStub) {
				t.Fatalf("%s: err = %v, want the failed instance's error", phase, err)
			}
			for i, done := range b.done {
				if done != (i != b.fail) {
					t.Errorf("%s: instance %d done = %v", phase, i, done)
				}
			}
		})
	}
}
