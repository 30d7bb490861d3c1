package mirror

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// The module's modeling constants.
const (
	// opOverhead is the per-operation user/kernel crossing cost of the
	// FUSE layer in seconds (context switches, §4.1 of the paper),
	// calibrated.
	opOverhead = 20e-6
	// fetchRetries is how many times a remote chunk fetch that failed
	// because every replica was down (blob.ErrNoReplica) is retried
	// before the error propagates to the hypervisor. Between attempts
	// the module backs off retryDelay seconds — the window in which
	// re-replication restores a copy or a cohort sibling lands one;
	// 50 ms is enough for one synchronous re-replication round to land.
	fetchRetries = 2
	retryDelay   = 0.05
)

// Module is the per-node mirroring module. It owns the node's local
// mirror files and their persisted modification metadata, so an image
// closed on this node can be reopened with its local state restored
// (paper §4.2: the local modification manager writes its metadata next
// to the local file on close).
type Module struct {
	node   cluster.NodeID
	client *blob.Client
	sharer blob.ChunkSharer // optional p2p cohort; set before opening images

	// pinHook is a test seam: Clone's pin of the fresh clone (normally
	// infallible — version 1 was published moments before) consults it
	// first, so tests can force the pin-failure cleanup path, which is
	// unreachable deterministically otherwise (Pin is a local call).
	pinHook func(id blob.ID, v blob.Version) error

	mu     sync.Mutex
	closed map[blob.ID]*localState // persisted local state by origin blob
}

type localState struct {
	version   blob.Version
	leaves    []blob.LeafEntry
	committed []blob.LeafEntry
	chunks    *chunkTable
	local     []byte
}

// span is a chunk-relative [Lo,Hi) byte hull.
type span struct {
	Lo, Hi int32
}

func (s span) empty() bool { return s.Hi <= s.Lo }

// cover returns s extended to contain [lo,hi).
func (s span) cover(lo, hi int32) span {
	if s.empty() {
		return span{lo, hi}
	}
	return span{min(s.Lo, lo), max(s.Hi, hi)}
}

// chunkState is the local modification manager's record for chunk
// Index: at most one contiguous mirrored byte range and one contiguous
// dirty byte range. Dirty is always contained in mirrored. Window is
// set while a commit pushes the chunk's captured payload to the
// fabric, and During is the dirty hull of the writes that landed on it
// since: commit completion re-marks exactly those bytes, which the
// published snapshot does not contain, instead of wiping them.
type chunkState struct {
	Index              int64
	Mir, Dirty, During span
	Window             bool
}

func (cs chunkState) mirrored() bool { return !cs.Mir.empty() }
func (cs chunkState) dirty() bool    { return !cs.Dirty.empty() }

// chunkTable is an image's local modification record, sized by the
// chunks the image touched: full has one bit per chunk, set when the
// chunk is fully mirrored, and parts holds the state of each chunk that
// is partly mirrored or dirty, sorted by Index. A chunk in neither is
// untouched, or whole and clean as its bit says. A chunk in a publish
// window is dirty, so it always has an entry.
type chunkTable struct {
	full  []uint64
	parts []chunkState
}

func byState(st chunkState, ci int64) int { return cmp.Compare(st.Index, ci) }

// NewModule creates the mirroring module for a node, attached to the
// blob storage service through client.
func NewModule(node cluster.NodeID, client *blob.Client) *Module {
	return &Module{
		node:   node,
		client: client,
		closed: make(map[blob.ID]*localState),
	}
}

// Node returns the node this module runs on.
func (m *Module) Node() cluster.NodeID { return m.node }

// SetSharer attaches the module (and its blob client) to a p2p sharing
// cohort: subsequent image opens hold what they mirror clean and consult
// cohort peers on demand misses. Call it before opening images.
func (m *Module) SetSharer(s blob.ChunkSharer) {
	m.sharer = s
	m.client.SetSharer(s)
}

// Stats aggregates an image's access accounting.
type Stats struct {
	RemoteChunkFetches int64 // chunks fetched from the repository
	RemoteBytesFetched int64 // payload bytes fetched
	GapFills           int64 // writes that forced a remote gap fill
	CommittedChunks    int64
	DuplicateFetches   int64 // concurrent fetches of the same chunk, counted once
	FetchRetries       int64 // remote fetches re-attempted after ErrNoReplica
}

// Image is an open mirrored image: the raw file the hypervisor sees.
// Guest I/O must come from the owning activity (a VM's virtual disk has
// one queue here, like the paper's one-FUSE-mount-per-VM deployment); a
// Commit or Snapshot may overlap it from another. The mutable state
// below is therefore guarded by mu, which is never held across fabric
// operations.
type Image struct {
	mod  *Module
	info blob.Info

	mu      sync.Mutex
	blobID  blob.ID      // changes on Clone
	version blob.Version // changes on Commit
	chunks  *chunkTable  // persisted by Close, so shared with a reopen
	local   []byte       // real local mirror; nil when running synthetic
	open    bool
	stats   Stats

	// leaves is the chunk map of the snapshot the image opened, entry
	// i for chunk i: resolved once at Open and shared read-only with
	// every other open of that snapshot (Client.ChunkMap), so it is
	// never written. committed holds the keys the image's own commits
	// published, sorted by Index; Clone changes neither (a clone has
	// the same content). Remote reads fetch by keyLocked.
	leaves    []blob.LeafEntry
	committed []blob.LeafEntry

	// run is the fetched payload the kernel has not yet written back: a
	// contiguous extent of chunks ending before chunk end.
	run struct{ end, bytes int64 }
}

// diskWriteIdle charges the write-back of a run; tests count through it.
var diskWriteIdle = (*cluster.Ctx).DiskWriteIdle

// Open mirrors snapshot (id, v) as a local raw image file. If the
// module holds persisted local state for this blob (from a previous
// Close on this node), it is restored, including dirty data. When
// real is true the image materializes a local byte buffer and serves
// actual data; synthetic images only track state and costs.
func (m *Module) Open(ctx *cluster.Ctx, id blob.ID, v blob.Version, real bool) (*Image, error) {
	if ctx.Node() != m.node {
		return nil, fmt.Errorf("mirror: open from node %d on module of node %d: %w", ctx.Node(), m.node, ErrWrongNode)
	}
	inf, err := m.client.Info(ctx, id)
	if err != nil {
		return nil, err
	}
	// Pin the mirrored snapshot for the image's lifetime: an open image
	// keeps demand-fetching from (id, v), so retention must not retire
	// it and the garbage collector must keep its chunks. Opening a
	// retired (or never published) version fails here.
	if err := m.client.PinVersion(id, v); err != nil {
		return nil, err
	}
	im := &Image{mod: m, blobID: id, version: v, info: inf, open: true}
	m.mu.Lock()
	st := m.closed[id]
	switch {
	case st == nil || st.version != v:
		st = nil
	case real && st.local == nil:
		// Refused before the state is taken: a later synthetic reopen
		// still finds the node's dirty map.
		m.mu.Unlock()
		m.client.UnpinVersion(id, v)
		return nil, fmt.Errorf("mirror: image %d was closed synthetic, cannot reopen real: %w", id, ErrSynthetic)
	default:
		delete(m.closed, id)
	}
	m.mu.Unlock()
	if st != nil {
		// The node is still registered as a holder of everything it
		// held before closing (the local mirror file survived), and the
		// restored state says which (heldLocked): a post-reopen dirtying
		// write has to retract the stale location record.
		im.leaves, im.committed, im.chunks, im.local = st.leaves, st.committed, st.chunks, st.local
		// Re-reading the persisted modification metadata costs one
		// local-disk access.
		ctx.DiskRead(m.node, inf.Chunks()*16)
		return im, nil
	}
	// Resolve the snapshot's complete chunk map once, so that no demand
	// fetch afterwards descends the tree or pays its metadata RPCs — the
	// metadata analogue of the paper's "fetch the full minimal chunk
	// set" strategy 1.
	if im.leaves, err = m.client.ChunkMap(ctx, id, v); err != nil {
		m.client.UnpinVersion(id, v)
		return nil, err
	}
	im.chunks = &chunkTable{full: make([]uint64, (inf.Chunks()+63)/64)}
	if real {
		im.local = make([]byte, inf.Size)
	}
	return im, nil
}

// Close releases the image and persists its local modification state
// on the module, so a later Open of the same snapshot on this node
// resumes where it left off.
func (im *Image) Close(ctx *cluster.Ctx) {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return
	}
	im.open = false
	id, v := im.blobID, im.version
	st := &localState{version: im.version, leaves: im.leaves, committed: im.committed, chunks: im.chunks, local: im.local}
	n, tail := im.info.Chunks()*16, im.run.bytes
	im.run.bytes = 0
	im.mu.Unlock()
	// Write back the pending run, then the metadata next to the file:
	// 16 bytes per chunk of the image, however few it touched.
	diskWriteIdle(ctx, im.mod.node, tail)
	ctx.DiskWrite(im.mod.node, n)
	im.mod.mu.Lock()
	im.mod.closed[id] = st
	im.mod.mu.Unlock()
	// The mirrored snapshot is no longer held open; it becomes eligible
	// for retirement and reclamation (a later reopen re-pins it, and
	// fails cleanly if retention retired it in between).
	im.mod.client.UnpinVersion(id, v)
}

// Size returns the image size in bytes.
func (im *Image) Size() int64 { return im.info.Size }

// BlobID returns the blob currently backing the image (changes after
// Clone).
func (im *Image) BlobID() blob.ID {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.blobID
}

// Version returns the snapshot the image currently mirrors (changes
// after Commit).
func (im *Image) Version() blob.Version {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.version
}

// Stats returns a copy of the image's counters.
func (im *Image) Stats() Stats {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.stats
}

// Dirty reports whether the image has uncommitted local modifications.
func (im *Image) Dirty() bool {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, st := range im.chunks.parts {
		if st.dirty() {
			return true
		}
	}
	return false
}

// ReadAt implements the hypervisor read path on a real image.
func (im *Image) ReadAt(ctx *cluster.Ctx, p []byte, off int64) (int, error) {
	if err := im.access(ctx, off, int64(len(p)), p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements the hypervisor write path on a real image.
func (im *Image) WriteAt(ctx *cluster.Ctx, p []byte, off int64) (int, error) {
	if err := im.access(ctx, off, int64(len(p)), p, true); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read charges a read of [off, off+n) without moving data (synthetic
// images; the boot-trace driver uses this).
func (im *Image) Read(ctx *cluster.Ctx, off, n int64) error {
	return im.access(ctx, off, n, nil, false)
}

// Write charges a write of [off, off+n) without moving data.
func (im *Image) Write(ctx *cluster.Ctx, off, n int64) error {
	return im.access(ctx, off, n, nil, true)
}

// access is the R/W translator (§3.3). It validates the range, charges
// the FUSE crossing, and dispatches per overlapped chunk.
func (im *Image) access(ctx *cluster.Ctx, off, n int64, p []byte, write bool) error {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return fmt.Errorf("mirror: access: %w", ErrClosed)
	}
	if n == 0 {
		im.mu.Unlock()
		return nil
	}
	if off < 0 || off+n > im.info.Size {
		im.mu.Unlock()
		return fmt.Errorf("mirror: access [%d,%d) outside image size %d: %w", off, off+n, im.info.Size, blob.ErrOutOfRange)
	}
	if p != nil && im.local == nil {
		im.mu.Unlock()
		return fmt.Errorf("mirror: data access: %w", ErrSynthetic)
	}
	im.mu.Unlock()
	ctx.Sleep(opOverhead)

	cs := int64(im.info.ChunkSize)
	lo, hi := off/cs, (off+n+cs-1)/cs
	if !write {
		// Strategy 1: fetch the full minimal set of chunks covering the
		// requested region that are not fully mirrored, as whole chunks,
		// grouped into contiguous runs so the repository sees ranged
		// requests.
		if err := im.ensureMirrored(ctx, lo, hi); err != nil {
			return err
		}
		if p != nil {
			im.mu.Lock()
			copy(p, im.local[off:off+n])
			im.mu.Unlock()
		}
		return nil
	}
	// Write path: per chunk, keep the mirrored region contiguous. A
	// write onto a held chunk diverges the local copy from the published
	// content, so the node withdraws as its holder.
	var retract []blob.ChunkKey
	for ci := lo; ci < hi; ci++ {
		cstart := ci * cs
		wlo := int32(max(off, cstart) - cstart)
		whi := int32(min(off+n, cstart+int64(im.info.ChunkLen(ci))) - cstart)
		im.mu.Lock()
		if st := im.stateLocked(ci); st.mirrored() && (wlo > st.Mir.Hi || whi < st.Mir.Lo) {
			// Strategy 2: the write would fragment the mirrored region;
			// fill the gap by fetching the whole chunk remotely first.
			im.stats.GapFills++
			im.mu.Unlock()
			if err := im.fetchChunks(ctx, ci, ci+1); err != nil {
				return err
			}
			im.mu.Lock()
		}
		if im.heldLocked(ci) {
			retract = append(retract, im.keyLocked(ci))
		}
		// Extend the contiguous mirrored region and track the dirty
		// hull inside it.
		st := im.stateLocked(ci)
		st.Mir = st.Mir.cover(wlo, whi)
		st.Dirty = st.Dirty.cover(wlo, whi)
		if st.Window {
			// A commit captured this chunk and is pushing it out right
			// now: record the write separately so completion re-marks
			// it dirty instead of wiping it with the committed range.
			st.During = st.During.cover(wlo, whi)
		}
		im.setLocked(st)
		im.mu.Unlock()
	}
	im.mu.Lock()
	if p != nil {
		copy(im.local[off:off+n], p)
	}
	im.mu.Unlock()
	if s := im.mod.sharer; s != nil && len(retract) > 0 {
		s.Retract(ctx, retract)
	}
	// The mmap'd local file absorbs the write; the kernel writes back
	// asynchronously (§4.2), beside reads: until COMMIT this is the only copy.
	ctx.DiskWriteAsync(im.mod.node, n)
	return nil
}

// ensureMirrored makes chunks [lo,hi) fully mirrored, fetching missing
// ones in contiguous runs.
func (im *Image) ensureMirrored(ctx *cluster.Ctx, lo, hi int64) error {
	runStart := int64(-1)
	for ci := lo; ci <= hi; ci++ {
		im.mu.Lock()
		missing := ci < hi && !im.fullyMirroredLocked(ci)
		im.mu.Unlock()
		if missing && runStart < 0 {
			runStart = ci
		}
		if !missing && runStart >= 0 {
			if err := im.fetchChunks(ctx, runStart, ci); err != nil {
				return err
			}
			runStart = -1
		}
	}
	return nil
}

func (im *Image) fullyMirroredLocked(ci int64) bool {
	return im.chunks.full[ci>>6]&(1<<(ci&63)) != 0
}

// stateLocked returns chunk ci's record: its entry, or else the state
// its bit implies.
func (im *Image) stateLocked(ci int64) chunkState {
	if i, ok := slices.BinarySearchFunc(im.chunks.parts, ci, byState); ok {
		return im.chunks.parts[i]
	}
	st := chunkState{Index: ci}
	if im.fullyMirroredLocked(ci) {
		st.Mir = span{0, im.info.ChunkLen(ci)}
	}
	return st
}

// setLocked records st as its chunk's state: the chunk's bit is set
// once Mir is whole (a mirrored range never shrinks), and its entry is
// kept only while the chunk is partly mirrored, dirty or in a publish
// window.
func (im *Image) setLocked(st chunkState) {
	t, ci := im.chunks, st.Index
	whole := st.Mir == span{0, im.info.ChunkLen(ci)}
	if whole {
		t.full[ci>>6] |= 1 << (ci & 63)
	}
	i, ok := slices.BinarySearchFunc(t.parts, ci, byState)
	switch keep := !whole && st.mirrored() || st.dirty() || st.Window; {
	case keep && ok:
		t.parts[i] = st
	case keep:
		if t.parts == nil {
			// A boot leaves tens of chunks partial or dirty (9 to 67
			// in the bench workloads): room for 16 at once saves the
			// four growths from one.
			t.parts = make([]chunkState, 0, 16)
		}
		t.parts = slices.Insert(t.parts, i, st)
	case ok:
		t.parts = slices.Delete(t.parts, i, i+1)
	}
}

// heldLocked reports whether this node holds chunk ci in its sharing
// cohort: it shares, and its copy is the whole, clean content of a
// stored chunk. The fetch that landed the chunk, or the commit that
// wrote it, published the node as its holder; a write that dirties it
// withdraws the node again.
func (im *Image) heldLocked(ci int64) bool {
	return im.mod.sharer != nil && im.fullyMirroredLocked(ci) && !im.stateLocked(ci).dirty() && im.keyLocked(ci) != 0
}

// keyLocked is chunk ci's key in the mirrored snapshot: the one the
// image last committed for it, or else the opened snapshot's.
func (im *Image) keyLocked(ci int64) blob.ChunkKey {
	if i, ok := slices.BinarySearchFunc(im.committed, ci, byIndex); ok {
		return im.committed[i].Chunk
	}
	return im.leaves[ci].Chunk
}

func byIndex(lf blob.LeafEntry, ci int64) int { return cmp.Compare(lf.Index, ci) }

// fetchChunks fetches whole chunks [lo,hi) from the repository and
// merges them into the local mirror, preserving dirty bytes. After the
// merge each chunk is fully mirrored. Fetched content is persisted on
// the local disk by the kernel's asynchronous write-back, which writes
// contiguous dirty pages of the mmap'd file as one request (§4.2): a
// fetch that starts where the pending run ends extends it; any other
// writes the run back first, one seek per run. A run stays within half
// the write buffer, so its write-back never waits on a drained buffer.
// The run is a clean copy of chunks the repository holds, so it is
// written back at idle priority and the disk serves reads first; dirty
// bytes keep the guest write's own, normal-priority write-back.
//
// A chunk that a concurrent fetch (a guest read racing a commit's gap
// fill) already merged while this one was in flight is skipped: its
// payload was transferred twice (the waste is charged) but counted once.
//
// With a sharing cohort the node holds each chunk from its Landed(ok) on.
// One that merged onto clean bytes stays held (heldLocked), for a later
// write to withdraw; any other (merged around dirty bytes, or a duplicate
// whose key the local copy no longer is) is withdrawn here, one Retract a
// fetch.
func (im *Image) fetchChunks(ctx *cluster.Ctx, lo, hi int64) error {
	sharer := im.mod.sharer
	fetched := make([]blob.FetchedChunk, hi-lo)
	im.mu.Lock()
	for i := range fetched {
		ci := lo + int64(i)
		fetched[i] = blob.FetchedChunk{Index: ci, Key: im.keyLocked(ci)}
		if fetched[i].Key == 0 {
			fetched[i].Payload = blob.Payload{Size: im.info.ChunkLen(ci)}
		}
	}
	im.mu.Unlock()
	err := im.mod.client.FetchKeyed(ctx, fetched)
	// Retry-with-backoff instead of propagating the first failure: a
	// fetch that lost the race with a provider death (every replica of
	// some chunk down) is re-attempted after retryDelay — by then
	// re-replication has restored a copy, or a cohort sibling that
	// landed the chunk offers an alternate source.
	for attempt := 0; err != nil && attempt < fetchRetries && errors.Is(err, blob.ErrNoReplica); attempt++ {
		im.mu.Lock()
		im.stats.FetchRetries++
		im.mu.Unlock()
		ctx.Sleep(retryDelay)
		err = im.mod.client.FetchKeyed(ctx, fetched)
	}
	if err != nil {
		return err
	}
	cs := int64(im.info.ChunkSize)
	var retract []blob.ChunkKey
	var bytes int64
	im.mu.Lock()
	for _, fc := range fetched {
		if !im.fullyMirroredLocked(fc.Index) {
			st := im.stateLocked(fc.Index)
			clen := im.info.ChunkLen(fc.Index)
			if im.local != nil {
				cstart := fc.Index * cs
				mergeFetched(im.local[cstart:cstart+int64(clen)], fc.Payload, st.Dirty)
			}
			st.Mir = span{0, clen}
			im.setLocked(st)
			im.stats.RemoteChunkFetches++
			im.stats.RemoteBytesFetched += int64(fc.Payload.Size)
			bytes += int64(fc.Payload.Size)
		} else {
			im.stats.DuplicateFetches++ // a concurrent fetch won the merge race
		}
		if sharer != nil && fc.Key != 0 && !(im.heldLocked(fc.Index) && im.keyLocked(fc.Index) == fc.Key) {
			retract = append(retract, fc.Key)
		}
	}
	var flush, tail int64
	if lo != im.run.end || im.run.bytes+bytes > ctx.Fabric().Config().WriteBuffer/2 {
		flush, im.run.bytes = im.run.bytes, 0
	}
	im.run.end, im.run.bytes = hi, im.run.bytes+bytes
	if !im.open { // Close already wrote its run back
		tail, im.run.bytes = im.run.bytes, 0
	}
	im.mu.Unlock()
	diskWriteIdle(ctx, im.mod.node, flush)
	diskWriteIdle(ctx, im.mod.node, tail)
	if len(retract) > 0 {
		sharer.Retract(ctx, retract)
	}
	return nil
}

// mergeFetched fills dst, one chunk of the local mirror, from the
// fetched payload around the chunk's dirty range, which it leaves
// alone: local modification wins.
func mergeFetched(dst []byte, p blob.Payload, dirty span) {
	if dirty.empty() { // clean
		dirty = span{}
	}
	p.CopyTo(dst[:dirty.Lo], 0)
	p.CopyTo(dst[dirty.Hi:], int64(dirty.Hi))
}

// Clone redirects the image to a fresh blob that logically duplicates
// the currently mirrored snapshot (the CLONE primitive). Local state —
// mirrored regions and dirty data — is untouched; only the identity of
// the remote object changes, at O(1) metadata cost (Fig. 3(b)).
func (im *Image) Clone(ctx *cluster.Ctx) error {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return fmt.Errorf("mirror: clone: %w", ErrClosed)
	}
	id, v := im.blobID, im.version
	im.mu.Unlock()
	clone, err := im.mod.client.Clone(ctx, id, v)
	if err != nil {
		return err
	}
	// Move the image's open-pin to the clone's first version before
	// releasing the source snapshot.
	if err := im.pinVersion(clone, 1); err != nil {
		// The image keeps pointing at the base, so nobody adopted the
		// freshly published clone: retire it, or it survives as a
		// zombie blob no retention policy knows about, pinning its
		// shared chunks against garbage collection forever. Best
		// effort — the pin failure is what propagates.
		if rerr := im.mod.client.Retire(ctx, clone, 1); rerr != nil && !errors.Is(rerr, blob.ErrVersionRetired) {
			return fmt.Errorf("mirror: clone %d unadopted and not retired (%v) after pin: %w", clone, rerr, err)
		}
		return err
	}
	im.mod.client.UnpinVersion(id, v)
	im.mu.Lock()
	im.blobID = clone
	im.version = 1
	im.mu.Unlock()
	return nil
}

// Commit publishes all local modifications as a new standalone snapshot
// of the image's blob (the COMMIT primitive) and returns its version.
// Dirty chunks are pushed whole (chunk-granular copy-on-write); a dirty
// chunk that is not fully mirrored is gap-filled first so its complete
// content exists locally. With no local modifications Commit returns
// the current version unchanged. When the module shares with a cohort,
// the committed chunks are announced by the write path: after COMMIT
// the local copy equals the published snapshot.
func (im *Image) Commit(ctx *cluster.Ctx) (blob.Version, error) {
	_, v, err := im.Snapshot(ctx, false)
	return v, err
}

// commitPlan carries a prepared commit between its two phases: the
// captured payloads and the chunk indices whose publish window is open.
type commitPlan struct {
	writes   []blob.ChunkWrite
	dirtyIdx []int64
}

// prepareCommit is COMMIT's local half: gap-fill dirty chunks that lack
// full content, then capture their payloads and open the publish window
// (Window on the chunk's entry). A nil plan means nothing was dirty. Every
// fabric operation it performs reads; it never publishes, so it can
// safely overlap a concurrent Clone (a forking Snapshot).
func (im *Image) prepareCommit(ctx *cluster.Ctx) (*commitPlan, error) {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return nil, fmt.Errorf("mirror: commit: %w", ErrClosed)
	}
	var dirtyIdx []int64
	for _, st := range im.chunks.parts {
		if st.dirty() {
			dirtyIdx = append(dirtyIdx, st.Index)
		}
	}
	im.mu.Unlock()
	if len(dirtyIdx) == 0 {
		return nil, nil
	}
	// Gap-fill dirty chunks that lack full local content.
	for _, ci := range dirtyIdx {
		im.mu.Lock()
		if im.fullyMirroredLocked(ci) {
			im.mu.Unlock()
			continue
		}
		if st, whole := im.stateLocked(ci), (span{0, im.info.ChunkLen(ci)}); st.Dirty == whole {
			// Entirely dirty: nothing to fill.
			st.Mir = whole
			im.setLocked(st)
			im.mu.Unlock()
			continue
		}
		im.mu.Unlock()
		if err := im.fetchChunks(ctx, ci, ci+1); err != nil {
			return nil, err
		}
	}
	// The dirty content is read back from the local mirror; the model
	// charges nothing for it (it was just written, so the page cache
	// holds it). Payload capture and the window's opening happen under
	// one lock acquisition: from here until completion, a concurrent
	// write on a captured chunk is recorded in During as well as in the
	// dirty hull.
	cs := int64(im.info.ChunkSize)
	writes := make([]blob.ChunkWrite, 0, len(dirtyIdx))
	im.mu.Lock()
	for _, ci := range dirtyIdx {
		clen := im.info.ChunkLen(ci)
		payload := blob.SyntheticPayload(clen, 0)
		if im.local != nil {
			cstart := ci * cs
			data := make([]byte, clen)
			copy(data, im.local[cstart:cstart+int64(clen)])
			payload = blob.RealPayload(data)
		}
		writes = append(writes, blob.ChunkWrite{Index: ci, Payload: payload})
		st := im.stateLocked(ci)
		st.Window, st.During = true, span{}
		im.setLocked(st)
	}
	im.mu.Unlock()
	return &commitPlan{writes: writes, dirtyIdx: dirtyIdx}, nil
}

// publishCommit is COMMIT's fabric half: push the captured payloads,
// publish the new version, and close the publish window — clearing the
// dirty record only for chunks no write touched while the publish was
// in flight, and re-marking exactly the bytes written meanwhile on the
// ones a write did touch.
func (im *Image) publishCommit(ctx *cluster.Ctx, plan *commitPlan) (blob.Version, error) {
	im.mu.Lock()
	id, base := im.blobID, im.version
	im.mu.Unlock()
	v, keyOf, err := im.mod.client.WriteChunksKeyed(ctx, id, base, plan.writes)
	if err != nil {
		im.closeWindow(plan.dirtyIdx)
		return 0, err
	}
	// The image now mirrors the freshly published snapshot; move its
	// open-pin from the base to the new version. The new version is
	// the blob's latest, so the pin cannot fail.
	if err := im.mod.client.PinVersion(id, v); err != nil {
		im.closeWindow(plan.dirtyIdx)
		return 0, err
	}
	im.mod.client.UnpinVersion(id, base)
	var retract []blob.ChunkKey
	im.mu.Lock()
	im.version = v
	im.stats.CommittedChunks += int64(len(plan.writes))
	im.committed = mergeCommitted(im.committed, plan.dirtyIdx, keyOf)
	for _, ci := range plan.dirtyIdx {
		// What was written between payload capture and publication the
		// published snapshot does not contain: exactly those bytes stay
		// dirty for the next commit, and none when no write landed.
		st := im.stateLocked(ci)
		st.Dirty, st.Window, st.During = st.During, false, span{}
		im.setLocked(st)
		// The client announced the committed keys. A clean chunk stays
		// held, for a later dirtying write to withdraw; on one a write
		// landed on meanwhile the local copy already diverged from the
		// committed key, so the node withdraws as its holder now.
		if im.mod.sharer != nil && !im.heldLocked(ci) {
			retract = append(retract, keyOf[ci])
		}
	}
	im.mu.Unlock()
	if len(retract) > 0 {
		im.mod.sharer.Retract(ctx, retract)
	}
	return v, nil
}

// mergeCommitted returns the image's committed keys with those of a
// commit laid over them: a fresh slice, sorted by Index, in one pass
// over both sorted lists. idx is the commit's ascending chunk indices.
func mergeCommitted(old []blob.LeafEntry, idx []int64, keyOf map[int64]blob.ChunkKey) []blob.LeafEntry {
	out := make([]blob.LeafEntry, 0, len(old)+len(idx))
	for _, ci := range idx {
		for len(old) > 0 && old[0].Index < ci {
			out, old = append(out, old[0]), old[1:]
		}
		if len(old) > 0 && old[0].Index == ci {
			old = old[1:]
		}
		out = append(out, blob.LeafEntry{Index: ci, Chunk: keyOf[ci]})
	}
	return append(out, old...)
}

// closeWindow abandons an open publish window after a failed commit:
// the dirty hulls were never cleared (and already absorbed any writes
// that landed during the attempt), so the window records just fold
// away and every modification remains committed by the next attempt.
func (im *Image) closeWindow(dirtyIdx []int64) {
	im.mu.Lock()
	for _, ci := range dirtyIdx {
		st := im.stateLocked(ci)
		st.Window, st.During = false, span{}
		im.setLocked(st)
	}
	im.mu.Unlock()
}

// pinVersion pins (id, v) through the module's test seam.
func (im *Image) pinVersion(id blob.ID, v blob.Version) error {
	if hook := im.mod.pinHook; hook != nil {
		if err := hook(id, v); err != nil {
			return err
		}
	}
	return im.mod.client.PinVersion(id, v)
}

// Snapshot is the CLONE+COMMIT sequence as one primitive: with fork the
// image first redirects to a fresh clone of the mirrored snapshot, then
// commits its local modifications; without fork it is Commit. It
// returns the blob and version now mirrored. The clone's metadata round
// trips overlap the commit's local prepare phase (gap fill and payload
// capture), and the publish then lands on the clone — the paper's
// multisnapshot pattern with the serial per-instance latency folded
// away.
func (im *Image) Snapshot(ctx *cluster.Ctx, fork bool) (blob.ID, blob.Version, error) {
	var clone []cluster.Task
	var cloneErr error
	if fork {
		clone = append(clone, ctx.Go("clone", ctx.Node(), func(cc *cluster.Ctx) { cloneErr = im.Clone(cc) }))
	}
	plan, err := im.prepareCommit(ctx)
	ctx.WaitAll(clone)
	if cloneErr != nil {
		if plan != nil {
			im.closeWindow(plan.dirtyIdx)
		}
		return 0, 0, cloneErr
	}
	if err != nil {
		return 0, 0, err
	}
	if plan == nil {
		return im.BlobID(), im.Version(), nil
	}
	v, err := im.publishCommit(ctx, plan)
	if err != nil {
		return 0, 0, err
	}
	return im.BlobID(), v, nil
}

// check reports the first broken invariant of the image's local
// modification record, for tests at a point where no commit runs: each
// chunk's dirty range lies inside its mirrored one, which lies inside
// the chunk; a chunk's bit is set exactly when it is fully mirrored;
// parts is sorted and unique and holds only partly mirrored or dirty
// chunks; no publish window, nor its hull, is left; committed is
// sorted with one entry per index.
func (im *Image) check() error {
	im.mu.Lock()
	defer im.mu.Unlock()
	n := im.info.Chunks()
	for i, st := range im.chunks.parts {
		ci := st.Index
		if ci < 0 || ci >= n || i > 0 && im.chunks.parts[i-1].Index >= ci {
			return fmt.Errorf("mirror: entry %d, chunk %d: parts not sorted and unique in [0,%d)", i, ci, n)
		}
		whole := span{0, im.info.ChunkLen(ci)}
		switch {
		case st.Mir.Lo < 0 || st.Mir.Lo > st.Mir.Hi || st.Mir.Hi > whole.Hi ||
			st.dirty() && (st.Dirty.Lo < st.Mir.Lo || st.Dirty.Hi > st.Mir.Hi):
			return fmt.Errorf("mirror: chunk %d: dirty %v not inside mirrored %v inside %v", ci, st.Dirty, st.Mir, whole)
		case im.fullyMirroredLocked(ci) != (st.Mir == whole):
			return fmt.Errorf("mirror: chunk %d: full bit %v for mirrored %v of %v", ci, im.fullyMirroredLocked(ci), st.Mir, whole)
		case st.Window || !st.During.empty():
			return fmt.Errorf("mirror: chunk %d: publish window open with no commit running", ci)
		case !st.dirty() && (!st.mirrored() || st.Mir == whole):
			return fmt.Errorf("mirror: chunk %d: entry for an untouched or whole and clean chunk", ci)
		}
	}
	for ci := n; ci < int64(len(im.chunks.full))*64; ci++ {
		if im.fullyMirroredLocked(ci) {
			return fmt.Errorf("mirror: full bit %d set past the last chunk %d", ci, n-1)
		}
	}
	for i := 1; i < len(im.committed); i++ {
		if im.committed[i-1].Index >= im.committed[i].Index {
			return fmt.Errorf("mirror: committed entry %d, chunk %d: committed keys not sorted and unique", i, im.committed[i].Index)
		}
	}
	return nil
}
