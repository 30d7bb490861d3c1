package blobvfs

import (
	"io"

	reposync "blobvfs/internal/sync"
)

// ExportStats summarizes an exported archive: what the delta shipped
// (chunks, tree nodes, logical bytes) versus the full-image baseline.
type ExportStats = reposync.ExportStats

// ImportStats summarizes an applied archive: the versions, tree nodes
// and chunks it stored.
type ImportStats = reposync.ImportStats

// SyncUUID returns the identity this repository stamps into exported
// archives (see WithSyncUUID).
func (r *Repo) SyncUUID() uint64 { return r.syncer.UUID() }

// Export serializes the delta between two versions of an image into a
// portable archive: everything versions (from, to] reference that the
// base version `from` does not — the exact set of tree nodes and
// chunks shadowing created for those commits. from 0 exports the full
// lineage through `to`. Base, target and every live intermediate are
// pinned for the duration of the stream, so a concurrent GC cannot
// reclaim content the archive still needs; intermediates already
// retired here ship as placeholders that keep the version numbering
// aligned on the importing side. Each successful export advances the
// image's monotone sequence number (stamped into the header; failed
// exports burn none), which is what lets the importer detect gaps.
func (r *Repo) Export(ctx *Ctx, w io.Writer, id ImageID, from, to Version) (ExportStats, error) {
	if err := r.checkOpen(); err != nil {
		return ExportStats{}, err
	}
	return reposync.Export(ctx, r.sys, r.syncer, w, id, from, to)
}

// Import validates and applies an archive produced by another
// repository's Export. Validation runs strictly before mutation — a
// rejected archive (ErrArchiveCorrupt, ErrSourceMismatch,
// ErrSequenceGap, ErrBaseMissing) leaves the repository untouched. A
// full archive (base 0) creates a new image; a delta must be the
// exact successor of the last archive applied for that image, and its
// base version must still be live here. Every shipped chunk is stored
// under a fresh key through the batched write path, and the imported
// versions register with the version manager — OpenDisk, retention and
// GC treat them exactly like local commits.
func (r *Repo) Import(ctx *Ctx, src io.Reader) (ImportStats, error) {
	if err := r.checkOpen(); err != nil {
		return ImportStats{}, err
	}
	return reposync.Import(ctx, r.sys, r.syncer, src)
}
