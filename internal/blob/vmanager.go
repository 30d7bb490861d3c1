package blob

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// VersionManager is BlobSeer's serialization point: it registers blobs
// and publishes snapshot roots in strict total order per blob. A writer
// pushes its chunks and metadata first, concurrently with every other
// writer, and only then publishes: Publish appends the root as the
// blob's next version and returns its number, in one round trip. The
// version order is therefore the order in which commits finish, and no
// writer ever waits on another's (the decoupled publication that makes
// COMMIT cheap, paper §4.2).
//
// The manager runs on a single designated node; every operation is a
// small RPC. SetStandbys extends it to a replicated journal group:
// every mutating operation appends a journal record to the standby
// nodes before it is acknowledged, and when the manager's host is down
// the first live standby serves in its place — so Latest/Root/pin
// state survives the death of its host. Without standbys (the
// default) every cost stays byte-identical to the unreplicated
// manager and the host is assumed fault-free.
type VersionManager struct {
	node cluster.NodeID
	// hosts is the journal group: the manager's own node followed by
	// the configured standbys.
	hosts []cluster.NodeID
	// lv is the cluster's liveness registry; nil has every host up.
	lv *cluster.Liveness

	// Failovers counts operations a dead manager host pushed onto a
	// journal standby. Zero without standbys.
	Failovers atomic.Int64

	mu    sync.Mutex
	blobs map[ID]*blobState
	next  ID
}

type blobState struct {
	info     Info
	versions []versionState // published versions; index = version-1
}

// versionState is one published version.
type versionState struct {
	root    NodeRef
	retired bool // logically deleted
	pins    int  // open references: mirrors, in-flight commits
}

// NewVersionManager creates a version manager hosted on the given node.
func NewVersionManager(node cluster.NodeID) *VersionManager {
	return &VersionManager{
		node:  node,
		hosts: []cluster.NodeID{node},
		blobs: make(map[ID]*blobState),
	}
}

// Node returns the node hosting the manager.
func (vm *VersionManager) Node() cluster.NodeID { return vm.node }

// SetStandbys configures the journal standby nodes. Call before any
// traffic; the manager's own node and duplicates are skipped.
func (vm *VersionManager) SetStandbys(nodes []cluster.NodeID) {
	for _, n := range nodes {
		if !slices.Contains(vm.hosts, n) {
			vm.hosts = append(vm.hosts, n)
		}
	}
}

// SetLiveness attaches the cluster liveness registry the journal group
// reads its members' state from. The journal needs no listener and no
// repair sweep — every live member already holds the full record stream,
// and a revived member is deterministically caught up by replaying it,
// which the model treats as free against the mutation costs already
// charged.
func (vm *VersionManager) SetLiveness(lv *cluster.Liveness) { vm.lv = lv }

// activeHost returns the journal member currently serving manager
// operations: the manager's own node while it is up, else the first
// live standby (counted as a failover). With the whole group down the
// primary is still charged — the model has no notion of a hung RPC,
// and the caller's operation is doomed with the control plane gone
// entirely, which the metadata tier's failed gets already surface.
func (vm *VersionManager) activeHost() cluster.NodeID {
	if len(vm.hosts) == 1 || vm.lv.Alive(vm.node) {
		return vm.node
	}
	for _, h := range vm.hosts[1:] {
		if vm.lv.Alive(h) {
			vm.Failovers.Add(1)
			return h
		}
	}
	return vm.node
}

// charge costs one read-only manager RPC to the active journal host.
func (vm *VersionManager) charge(ctx *cluster.Ctx, req, resp int64) {
	ctx.RPC(vm.activeHost(), req, resp)
}

// chargeMut costs one mutating manager RPC: the operation to the
// active host plus a small journal-append record to every other live
// member of the group, so manager state survives the host's death.
// Without standbys the loop never runs and the cost is the legacy
// single RPC.
func (vm *VersionManager) chargeMut(ctx *cluster.Ctx, req, resp int64) {
	active := vm.activeHost()
	ctx.RPC(active, req, resp)
	for _, h := range vm.hosts {
		if h != active && vm.lv.Alive(h) {
			ctx.RPC(h, 24, 16)
		}
	}
}

// CreateBlob registers a new empty blob with the given geometry and
// returns its ID. The blob has no published versions yet.
func (vm *VersionManager) CreateBlob(ctx *cluster.Ctx, size int64, chunkSize int) (ID, error) {
	if size < 0 || chunkSize <= 0 {
		return 0, fmt.Errorf("blob: geometry size=%d chunkSize=%d: %w", size, chunkSize, ErrOutOfRange)
	}
	vm.chargeMut(ctx, 32, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.next++
	id := vm.next
	chunks := (size + int64(chunkSize) - 1) / int64(chunkSize)
	vm.blobs[id] = &blobState{info: Info{ID: id, Size: size, ChunkSize: chunkSize, Span: span2(chunks)}}
	return id, nil
}

// Info returns a blob's geometry. The result is immutable, so clients
// cache it; the first fetch charges an RPC.
func (vm *VersionManager) Info(ctx *cluster.Ctx, id ID) (Info, error) {
	vm.charge(ctx, 16, 48)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return Info{}, notFound("blob", id)
	}
	return st.info, nil
}

// Latest returns the newest published version that has not been
// retired (0 if none). Retirement unpublishes a version from the
// Latest chain: clients building on "the current image" never see a
// snapshot that is scheduled for reclamation.
func (vm *VersionManager) Latest(ctx *cluster.Ctx, id ID) (Version, error) {
	vm.charge(ctx, 16, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	for v := Version(len(st.versions)); v >= 1; v-- {
		if !st.versions[v-1].retired {
			return v, nil
		}
	}
	return 0, nil
}

// LiveVersions returns every published version of id that has not been
// retired, in ascending order (empty if none). One listing RPC is
// charged for the whole enumeration, before the state is read — the
// same observation ordering as every other manager operation.
func (vm *VersionManager) LiveVersions(ctx *cluster.Ctx, id ID) ([]Version, error) {
	vm.charge(ctx, 16, 64)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return nil, notFound("blob", id)
	}
	out := make([]Version, 0, len(st.versions))
	for i, vs := range st.versions {
		if !vs.retired {
			out = append(out, Version(i+1))
		}
	}
	return out, nil
}

// Root returns the published root of (id, v). A retired version is
// logically deleted: its root is no longer resolvable, even before the
// garbage collector has physically reclaimed its storage.
func (vm *VersionManager) Root(ctx *cluster.Ctx, id ID, v Version) (NodeRef, error) {
	vm.charge(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vs, err := vm.liveLocked(id, v)
	if err != nil {
		return 0, err
	}
	return vs.root, nil
}

// liveLocked returns the record of (id, v) if that version is
// published and not retired. vm.mu must be held.
func (vm *VersionManager) liveLocked(id ID, v Version) (*versionState, error) {
	st, ok := vm.blobs[id]
	if !ok {
		return nil, notFound("blob", id)
	}
	if v < 1 || int(v) > len(st.versions) {
		return nil, notFound("version", fmt.Sprintf("%d@%d", id, v))
	}
	if vs := &st.versions[v-1]; !vs.retired {
		return vs, nil
	}
	return nil, retired(id, v)
}

// Publish appends root, a snapshot whose chunks and metadata are
// already durable, as the next version of blob id and returns its
// number.
func (vm *VersionManager) Publish(ctx *cluster.Ctx, id ID, root NodeRef) (Version, error) {
	vm.chargeMut(ctx, 40, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	st.versions = append(st.versions, versionState{root: root})
	return Version(len(st.versions)), nil
}

// Published returns (without cost) how many versions of id are visible.
func (vm *VersionManager) Published(id ID) int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0
	}
	return len(st.versions)
}

// PinnedError reports an attempt to retire a version that is still
// open somewhere (a mirror has it mounted, or a commit is building on
// it). It wraps ErrVersionPinned.
type PinnedError struct {
	ID ID
	V  Version
}

func (e *PinnedError) Error() string {
	return fmt.Sprintf("blob: version %d@%d is pinned", e.ID, e.V)
}

// Unwrap makes errors.Is(err, ErrVersionPinned) true.
func (e *PinnedError) Unwrap() error { return ErrVersionPinned }

// Pin marks (id, v) as in use: a pinned version cannot be retired, so
// the garbage collector treats its snapshot as live. Mirrors pin the
// version they mirror for as long as the image is open, and clients
// pin the base of an in-flight commit or clone. Pinning a retired or
// unpublished version fails. Pins nest; every Pin needs one Unpin.
//
// The pin piggybacks on the RPC its caller is already making to the
// manager (Info/Root/Publish), so no separate cost is charged.
func (vm *VersionManager) Pin(id ID, v Version) error {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vs, err := vm.liveLocked(id, v)
	if err == nil {
		vs.pins++
	}
	return err
}

// Unpin releases one pin on (id, v). Unknown pins are ignored.
func (vm *VersionManager) Unpin(id ID, v Version) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if ok && v >= 1 && int(v) <= len(st.versions) && st.versions[v-1].pins > 0 {
		st.versions[v-1].pins--
	}
}

// Pins returns (without cost) the pin count of (id, v).
func (vm *VersionManager) Pins(id ID, v Version) int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok || v < 1 || int(v) > len(st.versions) {
		return 0
	}
	return st.versions[v-1].pins
}

// Retire logically deletes version v of blob id: it disappears from
// Latest and Root immediately; the storage it holds exclusively is
// reclaimed by the next garbage collection. Retiring a pinned version
// fails with *PinnedError — the caller retries after the holder closes.
func (vm *VersionManager) Retire(ctx *cluster.Ctx, id ID, v Version) error {
	vm.chargeMut(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vs, err := vm.liveLocked(id, v)
	if err != nil {
		return err
	}
	if vs.pins > 0 {
		return &PinnedError{ID: id, V: v}
	}
	vs.retired = true
	return nil
}

// RetireUpTo retires every published, unpinned version of id up to and
// including upTo, skipping pinned ones (they retire on a later sweep,
// once their holders close). It returns how many versions it retired.
// This is the primitive behind the keep-last-K retention policy.
func (vm *VersionManager) RetireUpTo(ctx *cluster.Ctx, id ID, upTo Version) (int, error) {
	vm.chargeMut(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	retired := 0
	for i := range min(int(upTo), len(st.versions)) {
		if vs := &st.versions[i]; !vs.retired && vs.pins == 0 {
			vs.retired = true
			retired++
		}
	}
	return retired, nil
}

// LiveRoot names one snapshot the garbage collector must treat as
// reachable: a published version that is not retired, or retired but
// still pinned (retirement of pinned versions is skipped, so the
// second case cannot normally arise — it is kept for safety).
type LiveRoot struct {
	ID   ID
	V    Version
	Root NodeRef
	Span int64
}

// LiveRoots returns every live snapshot root across all blobs, in
// (blob, version) order — the garbage collector's mark roots. One scan
// RPC to the manager is charged for the whole listing.
func (vm *VersionManager) LiveRoots(ctx *cluster.Ctx) []LiveRoot {
	vm.mu.Lock()
	var out []LiveRoot
	for id := ID(1); id <= vm.next; id++ {
		st, ok := vm.blobs[id]
		if !ok {
			continue
		}
		for i, vs := range st.versions {
			if vs.retired && vs.pins == 0 {
				continue
			}
			out = append(out, LiveRoot{ID: id, V: Version(i + 1), Root: vs.root, Span: st.info.Span})
		}
	}
	vm.mu.Unlock()
	vm.charge(ctx, 16, int64(len(out))*24+16)
	return out
}

// check reports the first broken invariant of the manager's records,
// in (blob, version) order: no version is retired while pinned, no pin
// count is negative, and every live version of a non-empty image has a
// root.
func (vm *VersionManager) check() error {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	for id := ID(1); id <= vm.next; id++ {
		st := vm.blobs[id]
		for i, vs := range st.versions {
			switch {
			case vs.retired && vs.pins > 0:
				return fmt.Errorf("version %d@%d is retired while pinned", id, i+1)
			case vs.pins < 0:
				return fmt.Errorf("version %d@%d has %d pins", id, i+1, vs.pins)
			case !vs.retired && st.info.Size > 0 && vs.root == 0:
				return fmt.Errorf("live version %d@%d of a non-empty image has no root", id, i+1)
			}
		}
	}
	return nil
}
