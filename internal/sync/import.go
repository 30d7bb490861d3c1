package sync

import (
	"errors"
	"fmt"
	"io"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// ImportStats summarizes one applied archive.
type ImportStats struct {
	Image    blob.ID // the image's ID in this repository
	Source   blob.ID // the image's ID on the source side
	From, To blob.Version
	Seq      uint64

	Versions int // live versions published
	Retired  int // placeholders re-published and retired
	Nodes    int // tree nodes ingested
	Chunks   int // chunk records in the archive

	// DedupedChunks is always 0: every shipped chunk is stored. The
	// benchmark harness (bench/liverun.go) still reads it.
	DedupedChunks int

	ChunkBytes   int64 // logical bytes of the shipped chunks
	ArchiveBytes int64
}

// Import decodes, validates and applies one archive. Validation is
// strictly ordered before mutation: the archive is structurally
// checked (DecodeArchive), admitted against the tracker's uuid and
// sequence state, and its trees fully resolved against the local base
// version — all with read-only metadata access — before the first
// provider write. A rejected archive therefore leaves the repository
// byte-identical: no chunk is stored, no node is stored, no version
// appears.
//
// Applying remaps every shipped ref and key into this repository's
// space: archive nodes get freshly allocated (pending-marked) refs,
// archive chunks freshly allocated keys, and refs the archive shares
// with the base resolve by range-descent of the local base tree —
// imports reproduce the source's tree structure, so the subtree
// covering a range is the same on both sides. Chunks publish through
// the batched PutBatch path, each under its own fresh key; versions
// then publish in order, each one a single call that
// returns the number the manager assigned (placeholders for
// source-retired versions publish and immediately retire), so
// OpenDisk, retention and GC see the imported lineage exactly as if
// it had been committed locally.
func Import(ctx *cluster.Ctx, sys *blob.System, t *Tracker, src io.Reader) (ImportStats, error) {
	a, err := DecodeArchive(src)
	if err != nil {
		return ImportStats{}, err
	}
	h := a.Header
	if err := validateSemantics(a); err != nil {
		return ImportStats{}, err
	}

	t.importMu.Lock()
	defer t.importMu.Unlock()

	localID, err := t.admit(h)
	if err != nil {
		return ImportStats{}, err
	}

	// Anchor the delta: the local image must exist, stand exactly at
	// the base version, and the base must still be live — it is
	// pinned for the whole apply so a concurrent retire+GC cannot
	// reclaim the subtrees the new versions link to.
	var baseRoot blob.NodeRef
	if h.From > 0 {
		info, err := sys.VM.Info(ctx, localID)
		if err != nil {
			return ImportStats{}, fmt.Errorf("sync: local image %d: %w", localID, err)
		}
		if int32(info.ChunkSize) != h.ChunkSize || info.Size != h.ImageSize || info.Span != h.Span {
			return ImportStats{}, corrupt("archive geometry (size %d, chunk %d) disagrees with local image %d (size %d, chunk %d)",
				h.ImageSize, h.ChunkSize, localID, info.Size, info.ChunkSize)
		}
		if got := blob.Version(sys.VM.Published(localID)); got != h.From {
			return ImportStats{}, fmt.Errorf("sync: local image %d stands at version %d, archive base is %d: %w",
				localID, got, h.From, ErrSequenceGap)
		}
		baseRoot, err = sys.VM.Root(ctx, localID, h.From)
		if err != nil {
			if errors.Is(err, blob.ErrVersionRetired) || errors.Is(err, blob.ErrNotFound) {
				return ImportStats{}, fmt.Errorf("sync: base version %d of local image %d: %v: %w",
					h.From, localID, err, ErrBaseMissing)
			}
			return ImportStats{}, err
		}
		if err := sys.VM.Pin(localID, h.From); err != nil {
			return ImportStats{}, fmt.Errorf("sync: base version %d of local image %d: %v: %w",
				h.From, localID, err, ErrBaseMissing)
		}
		defer sys.VM.Unpin(localID, h.From)
	}

	// Allocate this repository's refs and keys for everything the
	// archive ships. The allocations are local counter increments,
	// pending-marked so a concurrent GC cycle exempts them, and the
	// deferred clears make a failed import leave no trace beyond the
	// advanced counters.
	refMap := make(map[blob.NodeRef]blob.NodeRef, len(a.Nodes))
	pendingRefs := make([]blob.NodeRef, 0, len(a.Nodes))
	nodeByRef := make(map[blob.NodeRef]*NodeRecord, len(a.Nodes))
	for i := range a.Nodes {
		rec := &a.Nodes[i]
		if _, dup := nodeByRef[rec.Ref]; dup {
			return ImportStats{}, corrupt("duplicate node ref %d", rec.Ref)
		}
		nodeByRef[rec.Ref] = rec
		local := sys.Meta.AllocPending(1)
		refMap[rec.Ref] = local
		pendingRefs = append(pendingRefs, local)
	}
	defer sys.Meta.ClearPending(pendingRefs)

	keyMap := make(map[blob.ChunkKey]blob.ChunkKey, len(a.Chunks))
	pendingKeys := make([]blob.ChunkKey, len(a.Chunks))
	firstKey := sys.Providers.AllocPending(len(a.Chunks))
	for i := range pendingKeys {
		pendingKeys[i] = firstKey + blob.ChunkKey(i)
	}
	defer sys.Providers.ClearPending(pendingKeys)
	for i := range a.Chunks {
		rec := &a.Chunks[i]
		if _, dup := keyMap[rec.Key]; dup {
			return ImportStats{}, corrupt("duplicate chunk key %d", rec.Key)
		}
		keyMap[rec.Key] = pendingKeys[i]
	}

	res := &resolver{
		ctx: ctx, meta: sys.Meta,
		baseRoot: baseRoot, span: h.Span,
		refMap: refMap, keyMap: keyMap, nodeByRef: nodeByRef,
		sharedRefs:   make(map[blob.NodeRef]blob.NodeRef),
		sharedChunks: make(map[blob.ChunkKey]blob.ChunkKey),
	}

	// Resolve every version's tree — still read-only. The walk
	// validates the range invariants of the shipped nodes, checks
	// that shared refs actually resolve in the local base tree, and
	// produces the rewritten roots.
	roots := make([]blob.NodeRef, len(a.Versions))
	for i, vr := range a.Versions {
		if vr.Retired {
			continue
		}
		local, err := res.resolve(vr.Root, 0, h.Span)
		if err != nil {
			return ImportStats{}, err
		}
		roots[i] = local
	}

	// Validation is complete; apply. Everything below mutates, in
	// dependency order: image registration, chunks, metadata nodes,
	// then the version publications that make them reachable.
	if h.From == 0 {
		localID, err = sys.VM.CreateBlob(ctx, h.ImageSize, int(h.ChunkSize))
		if err != nil {
			return ImportStats{}, err
		}
	}

	if len(a.Chunks) > 0 {
		puts := make([]blob.ChunkPut, len(a.Chunks))
		for i, rec := range a.Chunks {
			puts[i] = blob.ChunkPut{Key: keyMap[rec.Key], Payload: rec.Payload}
		}
		if err := sys.Providers.PutBatch(ctx, puts); err != nil {
			return ImportStats{}, fmt.Errorf("sync: storing chunks: %w", err)
		}
	}
	sys.Meta.PutBatch(ctx, res.rewritten)

	stats := ImportStats{
		Image: localID, Source: h.Image,
		From: h.From, To: h.To, Seq: h.Seq,
		Nodes:        len(a.Nodes),
		Chunks:       len(a.Chunks),
		ArchiveBytes: a.Size,
	}
	for _, rec := range a.Chunks {
		stats.ChunkBytes += int64(rec.Payload.Size)
	}

	for i, vr := range a.Versions {
		v, err := sys.VM.Publish(ctx, localID, roots[i])
		if err != nil {
			return stats, err
		}
		if v != vr.Version {
			// A concurrent writer took the archive's number: what was
			// just published is not the source's version, so withdraw it.
			err := fmt.Errorf("sync: local image %d published archive version %d as %d (concurrent writer?): %w",
				localID, vr.Version, v, ErrSequenceGap)
			if rerr := sys.VM.Retire(ctx, localID, v); rerr != nil {
				err = fmt.Errorf("%w; withdrawing v%d: %v", err, v, rerr)
			}
			return stats, err
		}
		if vr.Retired {
			if err := sys.VM.Retire(ctx, localID, vr.Version); err != nil {
				return stats, err
			}
			stats.Retired++
		} else {
			stats.Versions++
		}
	}

	t.commitImport(h, localID)
	return stats, nil
}

// validateSemantics checks the decoded archive's internal consistency
// beyond the codec's checks of structure and header: version-range
// contiguity, and that live versions carry roots.
func validateSemantics(a *Archive) error {
	h := a.Header
	if len(a.Versions) != int(h.To-h.From) {
		return corrupt("%d version records for range (%d,%d]", len(a.Versions), h.From, h.To)
	}
	for i, vr := range a.Versions {
		if vr.Version != h.From+blob.Version(i)+1 {
			return corrupt("version record %d is %d, expected %d", i, vr.Version, h.From+blob.Version(i)+1)
		}
		if !vr.Retired && vr.Root == 0 && h.ImageSize > 0 {
			return corrupt("live version %d has no root", vr.Version)
		}
	}
	return nil
}

// resolver rewrites the archive's trees into local ref/key space.
// Refs the archive ships map through refMap; refs it shares with the
// base version resolve by descending the local base tree to the
// subtree covering the same range (imports reproduce the source's
// tree structure, so the correspondence is positional). Results are
// memoized — shadowing shares whole subtrees across the archived
// versions, and each is resolved once.
type resolver struct {
	ctx  *cluster.Ctx
	meta *blob.MetaService

	baseRoot blob.NodeRef
	span     int64

	refMap    map[blob.NodeRef]blob.NodeRef
	keyMap    map[blob.ChunkKey]blob.ChunkKey
	nodeByRef map[blob.NodeRef]*NodeRecord

	sharedRefs   map[blob.NodeRef]blob.NodeRef   // foreign shared ref → local ref
	sharedChunks map[blob.ChunkKey]blob.ChunkKey // foreign shared key → local key

	resolved  map[blob.NodeRef][2]int64 // archive refs already rewritten → their range
	rewritten []blob.NewNode

	// One-ref request and reply of descend's path walk.
	pathRef  [1]blob.NodeRef
	pathNode [1]blob.TreeNode
}

// resolve returns the local ref for a foreign ref expected to cover
// [lo,hi), rewriting the archive subtree under it on first visit.
func (r *resolver) resolve(ref blob.NodeRef, lo, hi int64) (blob.NodeRef, error) {
	if ref == 0 {
		return 0, nil
	}
	rec, inArchive := r.nodeByRef[ref]
	if !inArchive {
		return r.resolveShared(ref, lo, hi)
	}
	local := r.refMap[ref]
	if r.resolved == nil {
		r.resolved = make(map[blob.NodeRef][2]int64)
	}
	if at, done := r.resolved[ref]; done {
		// A node is one fixed subtree; an archive linking the same
		// ref at two ranges is corrupt, not shared.
		if at != [2]int64{lo, hi} {
			return 0, corrupt("node %d linked at [%d,%d) and [%d,%d)", ref, at[0], at[1], lo, hi)
		}
		return local, nil
	}
	r.resolved[ref] = [2]int64{lo, hi}
	n := rec.Node
	if n.Lo != lo || n.Hi != hi {
		return 0, corrupt("node %d covers [%d,%d), expected [%d,%d)", ref, n.Lo, n.Hi, lo, hi)
	}
	out := blob.TreeNode{Lo: lo, Hi: hi}
	if n.Leaf() {
		key, err := r.resolveChunk(n.Chunk, lo)
		if err != nil {
			return 0, err
		}
		out.Chunk = key
	} else {
		mid := (lo + hi) / 2
		left, err := r.resolve(n.Left, lo, mid)
		if err != nil {
			return 0, err
		}
		right, err := r.resolve(n.Right, mid, hi)
		if err != nil {
			return 0, err
		}
		out.Left, out.Right = left, right
	}
	r.rewritten = append(r.rewritten, blob.NewNode{Ref: local, Node: out})
	return local, nil
}

// resolveShared finds the local node covering [lo,hi) by binary
// descent from the local base root. A delta can only share subtrees
// with its base, so failing to reach the range means the archive and
// the local image disagree structurally.
func (r *resolver) resolveShared(ref blob.NodeRef, lo, hi int64) (blob.NodeRef, error) {
	if local, ok := r.sharedRefs[ref]; ok {
		return local, nil
	}
	local, _, err := r.descend(lo, hi)
	if err != nil {
		return 0, err
	}
	r.sharedRefs[ref] = local
	return local, nil
}

// resolveChunk maps a foreign chunk key at leaf index lo: shipped
// keys map to their freshly allocated local keys; a key the archive
// shares with the base (a cloned single-chunk tree) resolves to the
// local base leaf's key at the same index.
func (r *resolver) resolveChunk(key blob.ChunkKey, lo int64) (blob.ChunkKey, error) {
	if key == 0 {
		return 0, nil
	}
	if local, ok := r.keyMap[key]; ok {
		return local, nil
	}
	if local, ok := r.sharedChunks[key]; ok {
		return local, nil
	}
	leafRef, leaf, err := r.descend(lo, lo+1)
	if err != nil {
		return 0, err
	}
	if leafRef == 0 || leaf.Chunk == 0 {
		return 0, corrupt("chunk %d not shipped and base leaf %d is sparse", key, lo)
	}
	r.sharedChunks[key] = leaf.Chunk
	return leaf.Chunk, nil
}

// descend walks the local base tree from its root to the node
// covering exactly [lo,hi) and returns its ref and content.
func (r *resolver) descend(lo, hi int64) (blob.NodeRef, blob.TreeNode, error) {
	if r.baseRoot == 0 {
		return 0, blob.TreeNode{}, corrupt("subtree [%d,%d) not shipped and archive has no base", lo, hi)
	}
	ref := r.baseRoot
	clo, chi := int64(0), r.span
	for {
		if ref == 0 {
			return 0, blob.TreeNode{}, corrupt("subtree [%d,%d) not shipped and sparse in local base", lo, hi)
		}
		r.pathRef[0] = ref
		if err := r.meta.GetBatchInto(r.ctx, r.pathRef[:], r.pathNode[:]); err != nil {
			return 0, blob.TreeNode{}, err
		}
		n := r.pathNode[0]
		if n.Lo != clo || n.Hi != chi {
			return 0, blob.TreeNode{}, fmt.Errorf("blob: node %d covers [%d,%d), expected [%d,%d): %w",
				ref, n.Lo, n.Hi, clo, chi, blob.ErrCorruptTree)
		}
		if clo == lo && chi == hi {
			return ref, n, nil
		}
		if n.Leaf() {
			return 0, blob.TreeNode{}, corrupt("subtree [%d,%d) not shipped and absent from local base", lo, hi)
		}
		mid := (clo + chi) / 2
		if hi <= mid {
			ref, chi = n.Left, mid
		} else if lo >= mid {
			ref, clo = n.Right, mid
		} else {
			return 0, blob.TreeNode{}, corrupt("subtree [%d,%d) straddles base split at %d", lo, hi, mid)
		}
	}
}
