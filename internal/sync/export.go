package sync

import (
	"errors"
	"fmt"
	"io"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// ExportStats summarizes one exported archive: how much the delta
// shipped versus what shipping the full image would have cost.
type ExportStats struct {
	Image    blob.ID
	From, To blob.Version
	Seq      uint64

	Versions int // live versions shipped
	Retired  int // retired placeholders (version number only)
	Nodes    int // tree nodes shipped
	Chunks   int // chunk payloads shipped

	ChunkBytes   int64 // logical bytes of the shipped chunks
	NodeBytes    int64 // shipped metadata, at the modeled node wire size
	FullBytes    int64 // the full-image baseline: the image's logical size
	ArchiveBytes int64 // serialized archive length
}

// DeltaBytes is the headline delta cost: the logical chunk bytes plus
// metadata the archive ships, comparable against FullBytes. (It is
// deliberately not ArchiveBytes: synthetic payloads serialize as tiny
// descriptors, which would make simulation-scale reductions
// meaningless.)
func (s ExportStats) DeltaBytes() int64 { return s.ChunkBytes + s.NodeBytes }

// Export walks the segment trees of versions (from, to] of an image,
// marks everything reachable from the base version `from` the way the
// garbage collector's mark phase does, and streams the rest — the
// delta — into w as a portable archive. from 0 exports the full
// lineage up to `to` with no base. Versions of the range that were
// retired on this side ship as placeholder records so the importer's
// version numbering stays aligned.
//
// The base and target versions (and every live intermediate) are
// pinned for the duration of the export, so a concurrent GC cannot
// reclaim chunks or tree nodes the archive still needs. Nothing is
// written to w before every payload has been fetched, so an export
// that fails while walking or fetching writes nothing. The image's
// export sequence number is committed only after the stream completes
// — a failed export burns no sequence number.
func Export(ctx *cluster.Ctx, sys *blob.System, t *Tracker, w io.Writer, id blob.ID, from, to blob.Version) (ExportStats, error) {
	if from < 0 || to <= from {
		return ExportStats{}, fmt.Errorf("sync: export range (%d,%d] of image %d: %w", from, to, id, blob.ErrOutOfRange)
	}
	t.exportMu.Lock()
	defer t.exportMu.Unlock()

	info, err := sys.VM.Info(ctx, id)
	if err != nil {
		return ExportStats{}, err
	}

	// Pin the whole range before walking anything: the target and base
	// must be live; an intermediate that was already retired ships as
	// a placeholder.
	if err := sys.VM.Pin(id, to); err != nil {
		return ExportStats{}, fmt.Errorf("sync: export target %d@%d: %w", id, to, err)
	}
	defer sys.VM.Unpin(id, to)
	if from > 0 {
		if err := sys.VM.Pin(id, from); err != nil {
			return ExportStats{}, fmt.Errorf("sync: export base %d@%d: %w", id, from, err)
		}
		defer sys.VM.Unpin(id, from)
	}
	retiredAt := make(map[blob.Version]bool)
	for v := from + 1; v < to; v++ {
		err := sys.VM.Pin(id, v)
		switch {
		case err == nil:
			defer sys.VM.Unpin(id, v)
		case errors.Is(err, blob.ErrVersionRetired):
			retiredAt[v] = true
		default:
			return ExportStats{}, fmt.Errorf("sync: export intermediate %d@%d: %w", id, v, err)
		}
	}

	// Mark phase A: everything reachable from the base version is
	// already on the importing side and must not ship.
	meta := sys.Meta.Getter(ctx)
	seen := make(map[blob.NodeRef]bool)
	enter := func(ref blob.NodeRef) bool {
		if seen[ref] {
			return false
		}
		seen[ref] = true
		return true
	}
	baseChunks := make(map[blob.ChunkKey]bool)
	if from > 0 {
		baseRoot, err := sys.VM.Root(ctx, id, from)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export base %d@%d: %w", id, from, err)
		}
		err = blob.WalkReachable(meta, []blob.LiveRoot{{Root: baseRoot, Span: info.Span}}, enter, nil,
			func(key blob.ChunkKey) { baseChunks[key] = true })
		if err != nil {
			return ExportStats{}, err
		}
	}

	// Mark phase B: walk each live version of the range in ascending
	// order, pruning on the shared seen set — shadowing means each
	// version contributes only the nodes its commit created, and each
	// chunk ships at most once.
	var stats ExportStats
	var versions []VersionRecord
	var nodes []NodeRecord
	var keys []blob.ChunkKey
	shipped := make(map[blob.ChunkKey]bool)
	for v := from + 1; v <= to; v++ {
		if retiredAt[v] {
			versions = append(versions, VersionRecord{Version: v, Retired: true})
			stats.Retired++
			continue
		}
		root, err := sys.VM.Root(ctx, id, v)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export version %d@%d: %w", id, v, err)
		}
		err = blob.WalkReachable(meta, []blob.LiveRoot{{Root: root, Span: info.Span}}, enter,
			func(ref blob.NodeRef, n blob.TreeNode) {
				nodes = append(nodes, NodeRecord{Ref: ref, Node: n})
			},
			func(key blob.ChunkKey) {
				if baseChunks[key] || shipped[key] {
					return
				}
				shipped[key] = true
				keys = append(keys, key)
			})
		if err != nil {
			return ExportStats{}, err
		}
		versions = append(versions, VersionRecord{Version: v, Root: root})
		stats.Versions++
	}

	// The chunk payloads are fetched only now, after the walk: the
	// pins keep a concurrent GC from reclaiming them in between.
	// Nothing goes out before all of them are in hand, so an export
	// that fails writes nothing to w.
	seq := t.nextExportSeq(id)
	a := &Archive{
		Header: Header{
			SourceUUID: t.uuid,
			Image:      id,
			From:       from,
			To:         to,
			Seq:        seq,
			ChunkSize:  int32(info.ChunkSize),
			ImageSize:  info.Size,
			Span:       info.Span,
		},
		Versions: versions,
		Nodes:    nodes,
		Chunks:   make([]ChunkRecord, 0, len(keys)),
	}
	for _, key := range keys {
		p, err := sys.Providers.Get(ctx, key)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export chunk %d: %w", key, err)
		}
		a.Chunks = append(a.Chunks, ChunkRecord{Key: key, Payload: p, Digest: payloadDigest(p)})
		stats.ChunkBytes += int64(p.Size)
	}
	n, err := writeArchive(w, a)
	if err != nil {
		return ExportStats{}, fmt.Errorf("sync: writing archive: %w", err)
	}

	stats.Image = id
	stats.From, stats.To, stats.Seq = from, to, seq
	stats.Nodes = len(nodes)
	stats.Chunks = len(a.Chunks)
	stats.NodeBytes = int64(len(nodes)) * blob.TreeNodeWire
	stats.FullBytes = info.Size
	stats.ArchiveBytes = n
	t.commitExportSeq(id, seq)
	return stats, nil
}
