package middleware

import (
	"fmt"
	"sync"

	"blobvfs"
	"blobvfs/internal/broadcast"
	"blobvfs/internal/cluster"
	"blobvfs/internal/nfs"
	"blobvfs/internal/pvfs"
	"blobvfs/internal/qcow2"
	"blobvfs/internal/vmmodel"
)

// Backend abstracts how an instance's image is provisioned and
// snapshotted.
type Backend interface {
	// Prepare runs the global initialization phase before any instance
	// starts (the broadcast for prepropagation; a no-op for the lazy
	// schemes).
	Prepare(ctx *cluster.Ctx, nodes []cluster.NodeID) error
	// Provision makes instance i's virtual disk available on node and
	// returns it; called once per instance at hypervisor launch.
	Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error)
	// Snapshot persists instance i's local modifications to the
	// repository.
	Snapshot(ctx *cluster.Ctx, i int, node cluster.NodeID, disk vmmodel.VirtualDisk) error
}

// MirrorBackend is the paper's approach: lazy mirroring over the
// versioning blob store, CLONE+COMMIT snapshotting. It consumes only
// the public blobvfs façade — the repository wiring (per-node modules,
// sharing cohorts) lives behind blobvfs.Repo.
type MirrorBackend struct {
	Repo *blobvfs.Repo
	// Base is the shared image every instance deploys from.
	Base blobvfs.Snapshot
}

// NewMirrorBackend creates the backend for a base image already stored
// in repo.
func NewMirrorBackend(repo *blobvfs.Repo, base blobvfs.Snapshot) *MirrorBackend {
	return &MirrorBackend{Repo: repo, Base: base}
}

// Prepare implements Backend: the lazy scheme itself needs no
// initialization; with p2p sharing enabled on the repo, the
// deployment's nodes are registered as a cohort so they can serve each
// other's demand fetches (a no-op without WithP2P). A repo carries one
// cohort, so a refused registration — the slot already belongs to a
// different image — is an error rather than a silent loss of sharing.
func (b *MirrorBackend) Prepare(ctx *cluster.Ctx, nodes []cluster.NodeID) error {
	if !b.Repo.Share(ctx, b.Base.Image, nodes) && b.Repo.P2PEnabled() {
		return fmt.Errorf("middleware: repo's sharing cohort already belongs to another image (one p2p deployment per repo; image %d)", b.Base.Image)
	}
	return nil
}

// Provision implements Backend: expose the snapshot as a local raw
// file through the node's mirroring module. Experiment deployments are
// synthetic — costs are modeled, no bytes move.
func (b *MirrorBackend) Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error) {
	d, err := b.Repo.OpenDisk(ctx, node, b.Base, blobvfs.Synthetic())
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Snapshot implements Backend: first CLONE (so every instance gets its
// own lineage), then COMMIT; later snapshots of the same instance only
// COMMIT, per §3.2.
func (b *MirrorBackend) Snapshot(ctx *cluster.Ctx, i int, node cluster.NodeID, disk vmmodel.VirtualDisk) error {
	d, ok := disk.(*blobvfs.Disk)
	if !ok {
		return fmt.Errorf("middleware: mirror snapshot of foreign disk %T", disk)
	}
	_, err := b.Repo.Snapshot(ctx, d, d.Image() == b.Base.Image)
	return err
}

// QcowBackend is the qcow2-over-PVFS baseline: the raw base image is
// striped on PVFS; each instance gets a local qcow2 CoW file backed by
// it; a snapshot copies the qcow2 file back into PVFS as a new
// (dependent) file.
type QcowBackend struct {
	FS          *pvfs.FS
	BackingName string
	ClusterSize int

	mu     sync.Mutex
	rounds map[int]int
}

// NewQcowBackend creates the baseline over an image already stored in
// fs under backingName.
func NewQcowBackend(fs *pvfs.FS, backingName string) *QcowBackend {
	return &QcowBackend{
		FS:          fs,
		BackingName: backingName,
		ClusterSize: qcow2.DefaultClusterSize,
		rounds:      make(map[int]int),
	}
}

// SnapName returns the deterministic PVFS name of instance i's round-th
// snapshot (rounds start at 1).
func (b *QcowBackend) SnapName(i, round int) string {
	return fmt.Sprintf("%s.snap-%d-%d", b.BackingName, i, round)
}

// LastSnapshot returns the name of instance i's most recent snapshot,
// or "" if it has none.
func (b *QcowBackend) LastSnapshot(i int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rounds[i] == 0 {
		return ""
	}
	return b.SnapName(i, b.rounds[i])
}

// Prepare implements Backend: creating qcow2 files is per-instance and
// cheap, so there is no global phase.
func (b *QcowBackend) Prepare(ctx *cluster.Ctx, nodes []cluster.NodeID) error { return nil }

// Provision implements Backend.
func (b *QcowBackend) Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error) {
	backing, err := b.FS.Open(ctx, b.BackingName)
	if err != nil {
		return nil, err
	}
	// Creating the empty qcow2 file costs one local-disk metadata write.
	ctx.DiskWrite(node, 64<<10)
	return qcow2.Create(node, backing, b.ClusterSize, false)
}

// Snapshot implements Backend: read the local qcow2 file and copy it
// into PVFS under a fresh name (the paper's concurrent qcow2 copy).
func (b *QcowBackend) Snapshot(ctx *cluster.Ctx, i int, node cluster.NodeID, disk vmmodel.VirtualDisk) error {
	img, ok := disk.(*qcow2.Image)
	if !ok {
		return fmt.Errorf("middleware: qcow2 snapshot of foreign disk %T", disk)
	}
	bytes := img.FileBytes()
	b.mu.Lock()
	b.rounds[i]++
	name := b.SnapName(i, b.rounds[i])
	b.mu.Unlock()
	ctx.DiskRead(node, bytes)
	f, err := b.FS.Create(ctx, name, bytes, false)
	if err != nil {
		return err
	}
	return f.WriteAt(ctx, nil, 0, bytes)
}

// PrepropBackend is the taktuk-prepropagation baseline: the image is
// broadcast from a central NFS server to every node's local disk
// before any instance starts; boots are then purely local. Its
// snapshot is refused: copying every full image back to the server is
// the operation §5.3 rules out as infeasible at scale.
type PrepropBackend struct {
	Server    *nfs.Server
	ImageSize int64
}

// NewPrepropBackend creates the baseline for an image stored on srv.
func NewPrepropBackend(srv *nfs.Server, size int64) *PrepropBackend {
	return &PrepropBackend{Server: srv, ImageSize: size}
}

// Prepare implements Backend: the full broadcast, at taktuk's
// calibrated per-hop rate (broadcast.DefaultEffRate).
func (b *PrepropBackend) Prepare(ctx *cluster.Ctx, nodes []cluster.NodeID) error {
	targets := make([]cluster.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if n != b.Server.Node() {
			targets = append(targets, n)
		}
	}
	broadcast.Binomial(ctx, b.Server.Node(), targets, b.ImageSize, broadcast.DefaultEffRate)
	return nil
}

// Provision implements Backend: the image is already local.
func (b *PrepropBackend) Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error) {
	return &vmmodel.LocalRaw{NodeID: node, Bytes: b.ImageSize}, nil
}

// Snapshot implements Backend by refusing: §5.3 rules out shipping
// every full image back to the server.
func (b *PrepropBackend) Snapshot(ctx *cluster.Ctx, i int, node cluster.NodeID, disk vmmodel.VirtualDisk) error {
	return fmt.Errorf("middleware: prepropagation takes no snapshots (ruled out at scale, §5.3)")
}
