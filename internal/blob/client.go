package blob

import (
	"fmt"
	"sort"
	"sync"

	"blobvfs/internal/cluster"
)

// System bundles the three BlobSeer services. One System is deployed
// per cluster; any number of clients attach to it.
type System struct {
	Meta      *MetaService
	VM        *VersionManager
	Providers *ProviderSet
}

// NewSystem deploys the storage service over the given provider nodes
// (used for both data and metadata, aggregating the compute nodes'
// local disks per §3.1.1) with the version manager on vmNode.
func NewSystem(providers []cluster.NodeID, vmNode cluster.NodeID, replicas int) *System {
	return &System{
		Meta:      NewMetaService(providers),
		VM:        NewVersionManager(vmNode),
		Providers: NewProviderSet(providers, replicas),
	}
}

// clientParallel bounds a client's concurrent chunk transfers, modeling
// its connection pool. Parallel work is assigned round-robin so runs
// are deterministic.
const clientParallel = 16

// stripeRounds is how many times a stripe block of chunk keys goes
// round a window of clientParallel providers before the window moves
// on (replicaSet.primarySlot): 64 keys — 16 MiB of 256 KiB chunks, the
// paper's 15 MB snapshot diff — make one block.
const stripeRounds = 4

// Client is a BlobSeer access library instance. Blob geometry is
// immutable, so the client caches it without any invalidation protocol.
// Tree nodes are immutable too, but the client keeps none: a long-lived
// reader resolves a snapshot's whole chunk map once (ChunkMap) and
// fetches by key from it (FetchKeyed), so every descent the client
// still makes — a commit's path nodes, ReadAt, FetchChunks — reads the
// metadata service through MetaService.Getter. Concurrent callers are
// safe.
type Client struct {
	sys    *System
	sharer ChunkSharer // optional p2p chunk source (see sharing.go)

	infoMu sync.RWMutex
	infos  map[ID]Info
}

// NewClient attaches a client to a system.
func NewClient(sys *System) *Client {
	return &Client{
		sys:   sys,
		infos: make(map[ID]Info),
	}
}

// System returns the system this client is attached to.
func (c *Client) System() *System { return c.sys }

// Info returns blob geometry, cached after the first fetch.
func (c *Client) Info(ctx *cluster.Ctx, id ID) (Info, error) {
	c.infoMu.RLock()
	inf, ok := c.infos[id]
	c.infoMu.RUnlock()
	if ok {
		return inf, nil
	}
	inf, err := c.sys.VM.Info(ctx, id)
	if err == nil {
		c.infoMu.Lock()
		c.infos[id] = inf
		c.infoMu.Unlock()
	}
	return inf, err
}

// Create registers a new blob of the given size and chunk size. The
// blob has no published versions until the first WriteChunks.
func (c *Client) Create(ctx *cluster.Ctx, size int64, chunkSize int) (ID, error) {
	return c.sys.VM.CreateBlob(ctx, size, chunkSize)
}

// Latest returns the newest published version of the blob (0 if none).
func (c *Client) Latest(ctx *cluster.Ctx, id ID) (Version, error) {
	return c.sys.VM.Latest(ctx, id)
}

// PinVersion pins snapshot (id, v) against retirement and garbage
// collection; long-lived holders (the mirroring module, for as long as
// an image is open) pin what they read from. See VersionManager.Pin.
func (c *Client) PinVersion(id ID, v Version) error {
	return c.sys.VM.Pin(id, v)
}

// UnpinVersion releases a pin taken with PinVersion.
func (c *Client) UnpinVersion(id ID, v Version) {
	c.sys.VM.Unpin(id, v)
}

// Retire retires snapshot (id, v) at the version manager, making its
// exclusive storage reclaimable by the next collection. Callers that
// create a version and then fail to adopt it (the mirroring module's
// CLONE error path) use this to avoid leaking a zombie blob.
func (c *Client) Retire(ctx *cluster.Ctx, id ID, v Version) error {
	return c.sys.VM.Retire(ctx, id, v)
}

// ChunkWrite names a chunk index and its new payload for WriteChunks.
type ChunkWrite struct {
	Index   int64
	Payload Payload
}

// WriteChunks is the COMMIT data path: it stores the given chunk
// payloads on the providers (one batched RPC per provider), builds the
// shadowed segment tree against base while they transfer, and
// publishes the result as the blob's next version in total order. base
// is the version whose unmodified content the snapshot shares; base 0
// builds over an empty tree.
func (c *Client) WriteChunks(ctx *cluster.Ctx, id ID, base Version, writes []ChunkWrite) (Version, error) {
	v, _, err := c.WriteChunksKeyed(ctx, id, base, writes)
	return v, err
}

// WriteChunksKeyed is WriteChunks, additionally reporting the provider
// key allocated for each written chunk index. The mirroring module
// writes the keys into the chunk map it holds, and retract-tracks the
// chunks it announces at COMMIT by them.
func (c *Client) WriteChunksKeyed(ctx *cluster.Ctx, id ID, base Version, writes []ChunkWrite) (Version, map[int64]ChunkKey, error) {
	if len(writes) == 0 {
		return 0, nil, fmt.Errorf("blob: WriteChunks with no chunks: %w", ErrInvalidWrite)
	}
	inf, err := c.Info(ctx, id)
	if err != nil {
		return 0, nil, err
	}
	sorted := make([]ChunkWrite, len(writes))
	copy(sorted, writes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	nchunks := inf.Chunks()
	for i, w := range sorted {
		if w.Index < 0 || w.Index >= nchunks {
			return 0, nil, fmt.Errorf("blob: chunk index %d outside blob of %d chunks: %w", w.Index, nchunks, ErrOutOfRange)
		}
		if i > 0 && sorted[i-1].Index == w.Index {
			return 0, nil, fmt.Errorf("blob: duplicate chunk index %d: %w", w.Index, ErrInvalidWrite)
		}
		if int(w.Payload.Size) > inf.ChunkSize {
			return 0, nil, fmt.Errorf("blob: payload of %d bytes exceeds chunk size %d: %w", w.Payload.Size, inf.ChunkSize, ErrInvalidWrite)
		}
	}

	// Phase 1: push chunk payloads to the providers. Keys are allocated
	// as pending: until the version publishes, no tree references the
	// new chunks, and the pending mark is what keeps a concurrent
	// garbage-collection sweep from reclaiming them in that window.
	dirty := make([]DirtyLeaf, len(sorted))
	keys := make([]ChunkKey, len(sorted))
	puts := make([]ChunkPut, len(sorted))
	keyOf := make(map[int64]ChunkKey, len(sorted))
	first := c.sys.Providers.AllocPending(len(sorted))
	for i, w := range sorted {
		keys[i] = first + ChunkKey(i)
		dirty[i] = DirtyLeaf{Index: w.Index, Chunk: keys[i]}
		puts[i] = ChunkPut{Key: keys[i], Payload: w.Payload}
		keyOf[w.Index] = keys[i]
	}
	defer c.sys.Providers.ClearPending(first)

	// The whole round goes to the providers as one PutBatch — one RPC
	// per distinct provider — running as its own activity so the
	// transfer overlaps the metadata build and store of phase 2.
	var putErr error
	put := []cluster.Task{ctx.Go("put-chunks", ctx.Node(), func(cc *cluster.Ctx) {
		putErr = c.sys.Providers.PutBatch(cc, puts)
	})}
	// Error unwinds must not leave the put activity running against
	// keys whose pending marks are about to clear (joining twice is
	// harmless).
	defer ctx.WaitAll(put)

	// Phase 2: shadowed metadata, built and stored beside the chunk
	// put. The base version is pinned for the duration of the build so
	// a concurrent retention sweep cannot retire it (and the garbage
	// collector cannot reclaim the subtrees the new version is about
	// to share).
	var oldRoot NodeRef
	if base > 0 {
		if err := c.sys.VM.Pin(id, base); err != nil {
			return 0, nil, err
		}
		defer c.sys.VM.Unpin(id, base)
		oldRoot, err = c.sys.VM.Root(ctx, id, base)
		if err != nil {
			return 0, nil, err
		}
	}
	// The new tree nodes are pending for the same reason as the keys.
	// Storing them before the chunk put is known to have succeeded is
	// safe: nothing references them until the version publishes, so a
	// failed commit leaves them to the next collection.
	var firstRef NodeRef
	defer func() { c.sys.Meta.ClearPending(firstRef) }()
	root, created, err := BuildVersion(c.sys.Meta.Getter(ctx), oldRoot, inf.Span, dirty, func(n int) NodeRef {
		firstRef = c.sys.Meta.AllocPending(n)
		return firstRef
	})
	if err != nil {
		return 0, nil, err
	}
	c.sys.Meta.PutBatch(ctx, created)

	// Phase 3: join the chunk put, then publish. A published snapshot
	// must never reference in-flight chunks, and the cohort
	// announcement must wait for the content to exist.
	ctx.WaitAll(put)
	if putErr != nil {
		return 0, nil, putErr
	}
	// The writer holds the full content of every chunk it just pushed,
	// so it can serve siblings as an alternate source from now on.
	if c.sharer != nil {
		c.sharer.Announce(ctx, keys)
	}
	v, err := c.sys.VM.Publish(ctx, id, root)
	if err != nil {
		return 0, nil, err
	}
	return v, keyOf, nil
}

// Clone duplicates snapshot (id, v) as a new blob that shares all
// content and metadata with the source — the CLONE primitive of §3.2,
// implemented as the single extra root node of Fig. 3(b).
func (c *Client) Clone(ctx *cluster.Ctx, id ID, v Version) (ID, error) {
	inf, err := c.Info(ctx, id)
	if err != nil {
		return 0, err
	}
	// Pin the source snapshot while the clone root is built and
	// published, for the same reason WriteChunksKeyed pins its base.
	if err := c.sys.VM.Pin(id, v); err != nil {
		return 0, err
	}
	defer c.sys.VM.Unpin(id, v)
	srcRoot, err := c.sys.VM.Root(ctx, id, v)
	if err != nil {
		return 0, err
	}
	clone, err := c.sys.VM.CreateBlob(ctx, inf.Size, inf.ChunkSize)
	if err != nil {
		return 0, err
	}
	var firstRef NodeRef
	defer func() { c.sys.Meta.ClearPending(firstRef) }()
	root, created, err := CloneRoot(c.sys.Meta.Getter(ctx), srcRoot, inf.Span, func(n int) NodeRef {
		firstRef = c.sys.Meta.AllocPending(n)
		return firstRef
	})
	if err != nil {
		return 0, err
	}
	c.sys.Meta.PutBatch(ctx, created)
	if _, err := c.sys.VM.Publish(ctx, clone, root); err != nil {
		return 0, err
	}
	return clone, nil
}

// FetchedChunk is one chunk of a read range. Key 0 marks a sparse
// (all-zero) chunk, whose payload has the right size and no data.
type FetchedChunk struct {
	Index   int64
	Key     ChunkKey
	Payload Payload
}

// ChunkMap resolves the complete chunk map of snapshot (id, v) — every
// leaf of its segment tree, entry i for chunk i — in one root lookup
// and one batched level-order descent. Total metadata for even a large
// image is small (a 2 GB image at 256 KB chunks is ~16 K nodes of 64
// bytes, ~1 MB), so a long-lived reader such as the mirroring module
// pays depth rounds once at open and fetches by key (FetchKeyed) from
// then on. Concurrent calls for one snapshot each pay their own
// descent but share one host-side walk of the tree
// (MetaService.chunkMap), and get the same map: it is shared and
// read-only.
func (c *Client) ChunkMap(ctx *cluster.Ctx, id ID, v Version) ([]LeafEntry, error) {
	inf, err := c.Info(ctx, id)
	if err != nil {
		return nil, err
	}
	root, err := c.sys.VM.Root(ctx, id, v)
	if err != nil {
		return nil, err
	}
	return c.sys.Meta.chunkMap(ctx, root, inf.Span, inf.Chunks())
}

// PrefetchExtents resolves the chunk map of snapshot (id, v) and drops
// it: the cost of a cold open-time descent, for benchmarks.
func (c *Client) PrefetchExtents(ctx *cluster.Ctx, id ID, v Version) error {
	_, err := c.ChunkMap(ctx, id, v)
	return err
}

// FetchChunks retrieves the chunks covering indices [lo,hi) of (id,v),
// fetching distinct chunks in parallel. Each chunk comes from a cohort
// peer when the client has a ChunkSharer and a peer holds it, and from
// its home providers otherwise.
func (c *Client) FetchChunks(ctx *cluster.Ctx, id ID, v Version, lo, hi int64) ([]FetchedChunk, error) {
	inf, err := c.Info(ctx, id)
	if err != nil {
		return nil, err
	}
	nchunks := inf.Chunks()
	if lo < 0 || hi > nchunks || lo > hi {
		return nil, fmt.Errorf("blob: chunk range [%d,%d) outside blob of %d chunks: %w", lo, hi, nchunks, ErrOutOfRange)
	}
	// Empty ranges flow through resolution too: the version-existence
	// check in VM.Root must not be skipped.
	root, err := c.sys.VM.Root(ctx, id, v)
	if err != nil {
		return nil, err
	}
	leaves, err := CollectLeaves(c.sys.Meta.Getter(ctx), root, inf.Span, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]FetchedChunk, len(leaves))
	for i, lf := range leaves {
		out[i] = FetchedChunk{Index: lf.Index, Key: lf.Chunk}
		if lf.Chunk == 0 {
			out[i].Payload = Payload{Size: inf.ChunkLen(lf.Index)}
		}
	}
	if err := c.fetchPayloads(ctx, out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchKeyed fills in the payload of every non-sparse chunk of chunks,
// whose keys the caller took from a chunk map it holds (ChunkMap): no
// version lookup and no descent. A sparse chunk (Key 0) is left as the
// caller sized it. With a ChunkSharer every distinct chunk is on record
// there (ChunkSharer.Fetching) from the start of its read to its end,
// siblings that asked meanwhile read it from this node, and one that
// landed leaves this node its holder. This is the primitive the
// mirroring module's remote reads are built on.
func (c *Client) FetchKeyed(ctx *cluster.Ctx, chunks []FetchedChunk) error {
	return c.fetchPayloads(ctx, chunks, c.sharer != nil)
}

// fetchPayloads fetches the payloads of the non-sparse chunks of out in
// parallel, each distinct key once; duplicate keys (shared chunks at
// multiple indices) reuse the first fetch. keep puts every fetch on
// record with the sharer. A single chunk is fetched in place, with no
// bookkeeping around its read.
func (c *Client) fetchPayloads(ctx *cluster.Ctx, out []FetchedChunk, keep bool) error {
	if len(out) == 1 {
		if out[0].Key == 0 {
			return nil
		}
		var err error
		out[0].Payload, err = c.getChunk(ctx, out[0].Key, keep)
		return err
	}
	firstAt := make(map[ChunkKey]int, len(out))
	fetchIdx := make([]int, 0, len(out))
	for i, fc := range out {
		if fc.Key == 0 {
			continue
		}
		if _, seen := firstAt[fc.Key]; !seen {
			firstAt[fc.Key] = i
			fetchIdx = append(fetchIdx, i)
		}
	}
	fetchErrs := make([]error, len(fetchIdx))
	forEachParallel(ctx, "get-chunk", len(fetchIdx), func(cc *cluster.Ctx, j int) {
		i := fetchIdx[j]
		p, err := c.getChunk(cc, out[i].Key, keep)
		fetchErrs[j] = err
		out[i].Payload = p
	})
	if err := firstError(fetchErrs); err != nil {
		// A chunk that landed became held at its Landed(ok), and the
		// caller keeps none of them.
		var landed []ChunkKey
		for j, err := range fetchErrs {
			if keep && err == nil {
				landed = append(landed, out[fetchIdx[j]].Key)
			}
		}
		if len(landed) > 0 {
			c.sharer.Retract(ctx, landed)
		}
		return err
	}
	for i := range out {
		if out[i].Key != 0 {
			out[i].Payload = out[firstAt[out[i].Key]].Payload
		}
	}
	return nil
}

// ReadAt reads len(buf) bytes at offset off from snapshot (id, v) into
// buf. Sparse regions read as zeros. With synthetic payloads the time
// and traffic costs are charged but buf receives zeros.
func (c *Client) ReadAt(ctx *cluster.Ctx, id ID, v Version, buf []byte, off int64) error {
	if len(buf) == 0 {
		return nil
	}
	inf, err := c.Info(ctx, id)
	if err != nil {
		return err
	}
	end := off + int64(len(buf))
	if off < 0 || end > inf.Size {
		return fmt.Errorf("blob: read [%d,%d) outside blob size %d: %w", off, end, inf.Size, ErrOutOfRange)
	}
	cs := int64(inf.ChunkSize)
	chunks, err := c.FetchChunks(ctx, id, v, off/cs, (end+cs-1)/cs)
	if err != nil {
		return err
	}
	for _, fc := range chunks {
		cstart := fc.Index * cs
		from := max(off, cstart)
		to := min(end, cstart+cs)
		fc.Payload.CopyTo(buf[from-off:to-off], from-cstart)
	}
	return nil
}

// WriteAt writes buf at offset off on top of version base, producing a
// new version. Partially covered chunks are read-modify-written so the
// new chunk payloads are complete. This is the path used to upload
// initial images; the mirroring module uses WriteChunks directly.
func (c *Client) WriteAt(ctx *cluster.Ctx, id ID, base Version, buf []byte, off int64) (Version, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("blob: empty write: %w", ErrInvalidWrite)
	}
	inf, err := c.Info(ctx, id)
	if err != nil {
		return 0, err
	}
	end := off + int64(len(buf))
	if off < 0 || end > inf.Size {
		return 0, fmt.Errorf("blob: write [%d,%d) outside blob size %d: %w", off, end, inf.Size, ErrOutOfRange)
	}
	cs := int64(inf.ChunkSize)
	loC, hiC := off/cs, (end+cs-1)/cs

	// Read-modify-write boundary chunks that exist in the base version.
	var oldFirst, oldLast []FetchedChunk
	if base > 0 {
		if off%cs != 0 || (loC == hiC-1 && end%cs != 0) {
			oldFirst, err = c.FetchChunks(ctx, id, base, loC, loC+1)
			if err != nil {
				return 0, err
			}
		}
		if end%cs != 0 && hiC-1 > loC {
			oldLast, err = c.FetchChunks(ctx, id, base, hiC-1, hiC)
			if err != nil {
				return 0, err
			}
		}
	}
	oldData := func(idx int64) []byte {
		for _, fc := range append(oldFirst, oldLast...) {
			if fc.Index == idx && fc.Payload.Real() {
				return fc.Payload.Data
			}
		}
		return nil
	}

	writes := make([]ChunkWrite, 0, hiC-loC)
	for ci := loC; ci < hiC; ci++ {
		clen := inf.ChunkLen(ci)
		data := make([]byte, clen)
		if old := oldData(ci); old != nil {
			copy(data, old)
		}
		cstart := ci * cs
		from := max(off, cstart)
		to := min(end, cstart+int64(clen))
		copy(data[from-cstart:to-cstart], buf[from-off:to-off])
		writes = append(writes, ChunkWrite{Index: ci, Payload: RealPayload(data)})
	}
	return c.WriteChunks(ctx, id, base, writes)
}

// WriteFull publishes a complete synthetic image of the blob's size as
// its next version: every chunk gets a synthetic payload tagged with
// tag. This stands in for uploading a real 2 GB image in experiments.
func (c *Client) WriteFull(ctx *cluster.Ctx, id ID, base Version, tag uint64) (Version, error) {
	inf, err := c.Info(ctx, id)
	if err != nil {
		return 0, err
	}
	writes := make([]ChunkWrite, inf.Chunks())
	for i := range writes {
		writes[i] = ChunkWrite{
			Index:   int64(i),
			Payload: SyntheticPayload(inf.ChunkLen(int64(i)), tag),
		}
	}
	return c.WriteChunks(ctx, id, base, writes)
}

// presized returns m, or when m is empty a map with room for n entries:
// a bulk load into an empty store (the upload of a base image) then
// grows no table on the way, which was a fifth of its host time and a
// quarter of its allocation.
func presized[K comparable, V any](m map[K]V, n int) map[K]V {
	if len(m) == 0 {
		return make(map[K]V, n)
	}
	return m
}

// firstError returns the first non-nil error in errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachParallel runs fn(i) for i in [0,n) with at most clientParallel
// concurrent activities on the caller's node. Work is striped across
// workers (worker w handles w, w+P, ...), which is deterministic.
func forEachParallel(ctx *cluster.Ctx, name string, n int, fn func(cc *cluster.Ctx, i int)) {
	if n == 0 {
		return
	}
	if n == 1 {
		fn(ctx, 0)
		return
	}
	workers := clientParallel
	if n < workers {
		workers = n
	}
	tasks := make([]cluster.Task, 0, workers)
	for w := 0; w < workers; w++ {
		w := w
		tasks = append(tasks, ctx.Go(name, ctx.Node(), func(cc *cluster.Ctx) {
			for i := w; i < n; i += workers {
				fn(cc, i)
			}
		}))
	}
	ctx.WaitAll(tasks)
}
