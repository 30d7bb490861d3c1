package blobvfs

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/mirror"
	"blobvfs/internal/p2p"
	reposync "blobvfs/internal/sync"
)

// Snapshot names one immutable image: a lineage and a version within
// it. Every Snapshot is a standalone raw image regardless of how much
// storage it physically shares with others through shadowing and
// cloning.
type Snapshot struct {
	Image   ImageID
	Version Version
}

// Repo is an image repository deployed over a fabric, plus the
// per-node mirroring modules that expose its snapshots as local raw
// files. It is the façade's root object and is safe for concurrent use
// from multiple activities.
type Repo struct {
	fab     Fabric
	cfg     config
	sys     *blob.System
	sharing *p2p.Registry     // nil without WithP2P
	syncer  *reposync.Tracker // disconnected-sync identity + sequence state
	// liveness is the repo's node up/down registry, the one record every
	// service reads: the provider set (failover + re-replication), the
	// metadata service and version manager (with WithMetaReplicas), and
	// the sharing tracker (dead-peer retraction) are attached to it at
	// Open; ArmFaults feeds it the WithFaultPlan schedule, expanding
	// rack- and zone-scoped events to their member nodes first.
	liveness *cluster.Liveness

	closed      atomic.Bool
	faultsArmed atomic.Bool

	mu      sync.Mutex
	modules map[NodeID]*mirror.Module
	// cohort is the repo's one sharing cohort (see Share), attached to
	// every module created after it registered.
	cohort    *p2p.Cohort
	names     map[string]Snapshot
	collector *blob.Collector
}

// Open deploys a Repo on a fabric. The zero-option call aggregates
// every node's local disk into the storage pool with the version
// manager on node 0, 256 KB chunks and no replication — the paper's
// baseline deployment; functional options adjust each knob.
func Open(fab Fabric, opts ...Option) (*Repo, error) {
	if fab == nil {
		return nil, fmt.Errorf("blobvfs: nil fabric: %w", ErrOutOfRange)
	}
	cfg := config{
		replicas:     1,
		metaReplicas: 1,
		chunkSize:    256 << 10,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.providers == nil {
		for i := 0; i < fab.Nodes(); i++ {
			cfg.providers = append(cfg.providers, NodeID(i))
		}
	}
	if err := cfg.validate(fab.Nodes()); err != nil {
		return nil, err
	}
	syncUUID := cfg.syncUUID
	if syncUUID == 0 {
		syncUUID = nextSyncUUID.Add(1)
	}
	r := &Repo{
		fab:     fab,
		cfg:     cfg,
		sys:     blob.NewSystem(cfg.providers, cfg.manager, cfg.replicas),
		syncer:  reposync.NewTracker(syncUUID),
		modules: make(map[NodeID]*mirror.Module),
		names:   make(map[string]Snapshot),
	}
	if cfg.topo.Enabled() {
		r.sys.Providers.SetTopology(cfg.topo)
	}
	r.liveness = cluster.NewLiveness(fab.Nodes())
	if cfg.metaReplicas > 1 {
		r.sys.Meta.SetReplication(cfg.metaReplicas)
		if cfg.topo.Enabled() {
			r.sys.Meta.SetTopology(cfg.topo)
		}
		r.sys.Meta.SetLiveness(r.liveness)
		r.liveness.OnChange(r.sys.Meta.NodeChanged)
		// The version manager's journal standbys: the first r-1
		// providers distinct from its own host.
		var standbys []NodeID
		for _, n := range cfg.providers {
			if n == cfg.manager {
				continue
			}
			standbys = append(standbys, n)
			if len(standbys) == cfg.metaReplicas-1 {
				break
			}
		}
		r.sys.VM.SetStandbys(standbys)
		r.sys.VM.SetLiveness(r.liveness)
	}
	r.sys.Providers.SetLiveness(r.liveness)
	r.liveness.OnChange(r.sys.Providers.NodeChanged)
	if cfg.p2p {
		r.sharing = p2p.NewRegistry(cfg.manager, p2p.DefaultConfig())
		r.sharing.SetLiveness(r.liveness)
		if cfg.topo.Enabled() {
			r.sharing.SetTopology(cfg.topo)
		}
		r.liveness.OnChange(r.sharing.NodeChanged)
	}
	return r, nil
}

// nextSyncUUID auto-assigns sync identities to repos opened without
// WithSyncUUID: unique within the process, which is all the identity
// is compared against.
var nextSyncUUID atomic.Uint64

// Fabric returns the cluster the repo is deployed on.
func (r *Repo) Fabric() Fabric { return r.fab }

// System exposes the underlying storage services. It exists for the
// experiment harness and advanced instrumentation (service counters);
// application code should not need it.
func (r *Repo) System() *blob.System { return r.sys }

// owns rejects a disk opened on a different repo: image IDs are
// per-repository, so acting on a foreign disk's numerically-equal ID
// would silently hit an unrelated image here.
func (r *Repo) owns(d *Disk) error {
	if d.repo != r {
		return fmt.Errorf("blobvfs: disk belongs to a different repository: %w", ErrNotFound)
	}
	return nil
}

// checkOpen fails with ErrClosed once the repo has been closed.
func (r *Repo) checkOpen() error {
	if r.closed.Load() {
		return fmt.Errorf("blobvfs: repository %w", ErrClosed)
	}
	return nil
}

// client returns a fresh lifecycle client for one repo-level call.
// Lifecycle operations run from arbitrary nodes, so they must not
// share a client: its blob-geometry (Info) cache would physically span
// machines and under-charge the modeled RPCs. Caching is per node, and
// lives in the per-node modules (see module).
func (r *Repo) client() *blob.Client { return blob.NewClient(r.sys) }

// module returns (creating on first use) the mirroring module of a
// node. Each module owns a blob client, hence its own blob-geometry
// (Info) cache — caching is per node, as in the real deployment. Modules created
// after Share attach to the deployment's sharing cohort.
func (r *Repo) module(node NodeID) *mirror.Module {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.modules[node]
	if !ok {
		m = mirror.NewModule(node, blob.NewClient(r.sys))
		if r.cohort != nil {
			m.SetSharer(r.cohort)
		}
		r.modules[node] = m
	}
	return m
}

// Create stores data as a new image — the repository's upload path —
// and registers it under name (empty name skips registration). The
// returned Snapshot is the image's first published version.
func (r *Repo) Create(ctx *Ctx, name string, data []byte) (Snapshot, error) {
	if err := r.checkOpen(); err != nil {
		return Snapshot{}, err
	}
	if len(data) == 0 {
		return Snapshot{}, fmt.Errorf("blobvfs: empty image: %w", ErrInvalidWrite)
	}
	c := r.client()
	id, err := c.Create(ctx, int64(len(data)), r.cfg.chunkSize)
	if err != nil {
		return Snapshot{}, err
	}
	v, err := c.WriteAt(ctx, id, 0, data, 0)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{Image: id, Version: v}
	if name != "" {
		r.Tag(name, s)
	}
	return s, nil
}

// CreateSynthetic registers an image of the given size whose content
// is synthetic: every operation is costed on the fabric, but no bytes
// are materialized. This is how simulation-scale experiments upload
// their 2 GB base images.
func (r *Repo) CreateSynthetic(ctx *Ctx, name string, size int64) (Snapshot, error) {
	if err := r.checkOpen(); err != nil {
		return Snapshot{}, err
	}
	c := r.client()
	id, err := c.Create(ctx, size, r.cfg.chunkSize)
	if err != nil {
		return Snapshot{}, err
	}
	v, err := c.WriteFull(ctx, id, 0, uint64(id))
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{Image: id, Version: v}
	if name != "" {
		r.Tag(name, s)
	}
	return s, nil
}

// Clone duplicates a snapshot into a new independent lineage — the
// CLONE primitive: O(1) metadata, no data copied.
func (r *Repo) Clone(ctx *Ctx, s Snapshot) (Snapshot, error) {
	if err := r.checkOpen(); err != nil {
		return Snapshot{}, err
	}
	id, err := r.client().Clone(ctx, s.Image, s.Version)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Image: id, Version: 1}, nil
}

// OpenDisk mirrors snapshot s on the given node and returns the raw
// disk the hypervisor would mount. node must be the calling activity's
// node (a disk is strictly node-local, like the FUSE mount it models).
// The snapshot is pinned against retirement for as long as the disk is
// open; Close releases it.
func (r *Repo) OpenDisk(ctx *Ctx, node NodeID, s Snapshot, opts ...DiskOption) (*Disk, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	do := diskOptions{real: true}
	for _, opt := range opts {
		opt(&do)
	}
	im, err := r.module(node).Open(ctx, s.Image, s.Version, do.real)
	if err != nil {
		return nil, err
	}
	return &Disk{repo: r, im: im, origin: s}, nil
}

// Snapshot publishes d's local modifications as a new snapshot — the
// COMMIT primitive — and returns it. With fork true the disk first
// CLONEs into a fresh lineage, so the result is independent of the
// image the disk was opened from; this is how the first snapshot of an
// instance provisioned from a shared base gets its own history (§3.2).
// Without local modifications (and without fork) the current snapshot
// is returned unchanged.
func (r *Repo) Snapshot(ctx *Ctx, d *Disk, fork bool) (Snapshot, error) {
	if err := r.checkOpen(); err != nil {
		return Snapshot{}, err
	}
	if err := r.owns(d); err != nil {
		return Snapshot{}, err
	}
	id, v, err := d.im.Snapshot(ctx, fork)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Image: id, Version: v}, nil
}

// Retire logically deletes a snapshot: it disappears from Latest and
// Versions immediately, and the storage it holds exclusively is
// reclaimed by the next GC. Retiring a snapshot some disk has open (or
// a commit is building on) fails with ErrVersionPinned.
func (r *Repo) Retire(ctx *Ctx, s Snapshot) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.sys.VM.Retire(ctx, s.Image, s.Version)
}

// RetireOld applies keep-last-K retention to a disk's lineage: every
// unpinned version older than the newest keep is retired (pinned ones
// retire on a later sweep, once their holders close). keep <= 0 falls
// back to the WithRetention default; if that is unset too, RetireOld
// is a no-op. It returns how many versions it retired.
//
// Retention only ever touches a lineage the disk forked into (a
// Repo.Snapshot with fork true): while the disk still mirrors the
// lineage it was opened from — possibly an image shared with every
// other user of the repo — RetireOld is a no-op. Use Retire to delete
// versions of a shared lineage explicitly.
func (r *Repo) RetireOld(ctx *Ctx, d *Disk, keep int) (int, error) {
	if err := r.checkOpen(); err != nil {
		return 0, err
	}
	if err := r.owns(d); err != nil {
		return 0, err
	}
	if keep <= 0 {
		keep = r.cfg.retainLast
	}
	if keep <= 0 {
		return 0, nil
	}
	if d.Image() == d.origin.Image {
		return 0, nil // not forked; the lineage predates (and may outlive) this disk
	}
	upTo := d.Version() - Version(keep)
	if upTo < 1 {
		return 0, nil
	}
	return r.RetireUpTo(ctx, d.Image(), upTo)
}

// RetireUpTo retires every published, unpinned version of an image up
// to and including upTo, skipping pinned ones (they retire on a later
// sweep, once their holders close), and returns how many it retired.
// This is the raw primitive behind RetireOld, without its forked-
// lineage guard: callers that know a lineage is privately owned — the
// deployment middleware tracks the shared base image explicitly, so a
// resumed instance's own lineage keeps its retention — use it
// directly. On a lineage other users still deploy from it deletes
// their history; prefer RetireOld when in doubt.
func (r *Repo) RetireUpTo(ctx *Ctx, id ImageID, upTo Version) (int, error) {
	if err := r.checkOpen(); err != nil {
		return 0, err
	}
	return r.sys.VM.RetireUpTo(ctx, id, upTo)
}

// Versions lists the live (published, unretired) versions of an image
// in ascending order.
func (r *Repo) Versions(ctx *Ctx, id ImageID) ([]Version, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	return r.sys.VM.LiveVersions(ctx, id)
}

// Latest returns an image's newest live version (0 if none).
func (r *Repo) Latest(ctx *Ctx, id ImageID) (Version, error) {
	if err := r.checkOpen(); err != nil {
		return 0, err
	}
	return r.client().Latest(ctx, id)
}

// Size returns a snapshot's logical size in bytes.
func (r *Repo) Size(ctx *Ctx, s Snapshot) (int64, error) {
	if err := r.checkOpen(); err != nil {
		return 0, err
	}
	inf, err := r.client().Info(ctx, s.Image)
	if err != nil {
		return 0, err
	}
	return inf.Size, nil
}

// Download reads a whole snapshot into buf (the cloud client's "get
// image" path). buf must hold at least the image size.
func (r *Repo) Download(ctx *Ctx, s Snapshot, buf []byte) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	c := r.client()
	inf, err := c.Info(ctx, s.Image)
	if err != nil {
		return err
	}
	if int64(len(buf)) < inf.Size {
		return fmt.Errorf("blobvfs: buffer %d < image size %d: %w", len(buf), inf.Size, ErrOutOfRange)
	}
	return c.ReadAt(ctx, s.Image, s.Version, buf[:inf.Size], 0)
}

// Tag registers (or moves) a name to a snapshot.
func (r *Repo) Tag(name string, s Snapshot) {
	r.mu.Lock()
	r.names[name] = s
	r.mu.Unlock()
}

// Resolve looks a name up.
func (r *Repo) Resolve(name string) (Snapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.names[name]
	return s, ok
}

// Names returns all registered image names.
func (r *Repo) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.names))
	for n := range r.names {
		out = append(out, n)
	}
	return out
}

// P2PEnabled reports whether the repo was opened with WithP2P.
func (r *Repo) P2PEnabled() bool { return r.sharing != nil }

// ArmFaults starts the repo's fault-injection plan (WithFaultPlan): a
// fault-injector activity is spawned from ctx that kills and revives
// nodes on the configured schedule. Killed providers stop serving
// chunks — reads fail over to surviving replicas, and the chunks the
// dead node held are re-replicated onto substitutes — and killed
// cohort peers are retracted from the sharing layer. Without a
// configured plan ArmFaults fails with ErrNotFound; arming twice is a
// no-op (the plan runs once).
//
// The plan's event times are offsets from the arming instant. On a
// simulated fabric the clock has usually advanced by then — image
// population alone consumes virtual seconds — and a plan read as
// absolute time would lie entirely in the past, every event firing
// back to back at once; offsets keep the configured spacing inside the
// phase the caller arms it from.
func (r *Repo) ArmFaults(ctx *Ctx) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	if len(r.cfg.faults) == 0 {
		return fmt.Errorf("blobvfs: no fault plan configured: %w", ErrNotFound)
	}
	if !r.faultsArmed.CompareAndSwap(false, true) {
		return nil
	}
	now := ctx.Now()
	plan := slices.Clone(cluster.ExpandFaults(r.cfg.faults, r.cfg.topo))
	for i := range plan {
		plan[i].At += now
	}
	r.liveness.Execute(ctx, plan)
	return nil
}

// ArmFaultsRebased is ArmFaults under its former name, from when
// ArmFaults read plan times as absolute; only bench/simrun.go still
// calls it.
func (r *Repo) ArmFaultsRebased(ctx *Ctx) error { return r.ArmFaults(ctx) }

// NodeAlive reports whether the fault subsystem currently considers a
// node up (always true for every node unless a fault plan killed it).
func (r *Repo) NodeAlive(node NodeID) bool { return r.liveness.Alive(node) }

// Share registers nodes as a peer-to-peer sharing cohort for an image:
// disks of that deployment opened afterwards announce the chunks they
// mirror and serve each other's demand fetches before the providers.
// It reports whether sharing is active for the image (false without
// WithP2P). Call it before OpenDisk — modules already created on a
// node keep their previous attachment.
//
// A repo carries at most one cohort: a node's mirroring module (and
// its chunk fetch path) attaches to a single sharing group, so the
// registry refuses a Share for a second image rather than silently
// cross-wiring the first cohort's location maps. Deployments that
// share several images each open their own Repo, as the experiment
// scenarios do. Re-Shares of the registered image register again: the
// tracker merges the new members into the cohort, so a later
// deployment wave of the same image joins rather than hammering the
// providers.
func (r *Repo) Share(ctx *Ctx, image ImageID, nodes []NodeID) bool {
	if r.sharing == nil {
		return false
	}
	co := r.sharing.Register(ctx, image, nodes)
	if co == nil {
		return false
	}
	r.mu.Lock()
	r.cohort = co
	r.mu.Unlock()
	return true
}

// SharingStats returns the accounting of the cohort registered for an
// image (false when sharing is off or Share never registered it).
func (r *Repo) SharingStats(image ImageID) (P2PStats, bool) {
	if r.sharing == nil {
		return P2PStats{}, false
	}
	co := r.sharing.Cohort(image)
	if co == nil {
		return P2PStats{}, false
	}
	return co.Stats(), true
}

// Collector returns the repo's garbage collector, creating it on first
// use. With sharing enabled, reclaimed chunks are retracted from the
// cohort's location maps. The experiment harness hands this to its
// orchestrator; application code normally just calls GC.
func (r *Repo) Collector() *blob.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.collector == nil {
		r.collector = blob.NewCollector(r.sys)
		if r.sharing != nil {
			r.collector.SetListener(r.sharing)
		}
	}
	return r.collector
}

// GC runs one garbage-collection cycle: a concurrent mark over every
// live snapshot root, then a sweep of the chunks and metadata nodes
// nothing references anymore (retired versions' exclusive storage).
func (r *Repo) GC(ctx *Ctx) (GCReport, error) {
	if err := r.checkOpen(); err != nil {
		return GCReport{}, err
	}
	return r.Collector().Collect(ctx)
}

// RepoStats samples the repository's storage footprint and its
// failure-resilience counters.
type RepoStats struct {
	Chunks          int   // distinct chunk payloads stored
	StoredBytes     int64 // payload bytes (one copy per chunk)
	MetaNodes       int   // segment-tree nodes stored
	ReclaimedChunks int64 // chunk payloads freed by GC so far
	ReclaimedBytes  int64

	// FailedFetches counts chunk reads that found no live copy at all
	// (before any retry through the sharing cohort); Failovers counts
	// reads a dead primary pushed onto a surviving replica or repair
	// copy; Rereplicated counts chunk copies re-created on substitute
	// providers after a node death. All three stay zero without a
	// fault plan.
	FailedFetches int64
	Failovers     int64
	Rereplicated  int64

	// The metadata-tier twins, live with WithMetaReplicas(r > 1):
	// FailedDescents counts metadata gets that found no live replica
	// (each one fails a client descent), MetaFailovers counts gets a
	// dead replica pushed onto a surviving one, MetaRereplicated
	// counts tree-node copies restored by repair sweeps, and
	// VMFailovers counts version-manager operations a journal standby
	// served in place of the dead manager host. All stay zero at
	// metadata replication degree 1.
	FailedDescents   int64
	MetaFailovers    int64
	MetaRereplicated int64
	VMFailovers      int64
}

// Stats samples the repository's current storage footprint.
func (r *Repo) Stats() RepoStats {
	return RepoStats{
		Chunks:          r.sys.Providers.ChunkCount(),
		StoredBytes:     r.sys.Providers.StoredBytes(),
		MetaNodes:       r.sys.Meta.NodeCount(),
		ReclaimedChunks: r.sys.Providers.Reclaimed.Load(),
		ReclaimedBytes:  r.sys.Providers.ReclaimedBytes.Load(),
		FailedFetches:   r.sys.Providers.FailedReads.Load(),
		Failovers:       r.sys.Providers.Failovers.Load(),
		Rereplicated:    r.sys.Providers.Rereplicated.Load(),

		FailedDescents:   r.sys.Meta.FailedGets.Load(),
		MetaFailovers:    r.sys.Meta.Failovers.Load(),
		MetaRereplicated: r.sys.Meta.Rereplicated.Load(),
		VMFailovers:      r.sys.VM.Failovers.Load(),
	}
}

// Close marks the repository closed: subsequent lifecycle calls fail
// with ErrClosed. Open disks stay usable until closed individually
// (their pins outlive the repo handle by design — a hypervisor does
// not crash because a control connection went away). Close is
// idempotent and safe to call concurrently.
func (r *Repo) Close() error {
	r.closed.CompareAndSwap(false, true)
	return nil
}
