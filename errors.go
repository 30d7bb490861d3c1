package blobvfs

import (
	"blobvfs/internal/blob"
	"blobvfs/internal/mirror"
	reposync "blobvfs/internal/sync"
)

// The façade's error taxonomy. These are the same sentinel values the
// internal layers wrap with %w, re-exported so that
// errors.Is(err, blobvfs.ErrNotFound) (and peers) holds for any error
// that crosses the façade, no matter how deep it originated.
var (
	// ErrNotFound reports a missing image, version, metadata node or
	// chunk. Detail rides along as *NotFoundError.
	ErrNotFound = blob.ErrNotFound
	// ErrOutOfRange reports an offset, length, chunk index or version
	// outside the addressed object's bounds.
	ErrOutOfRange = blob.ErrOutOfRange
	// ErrVersionRetired reports an access to a snapshot deleted by
	// retention; its storage is (or is about to be) reclaimed.
	ErrVersionRetired = blob.ErrVersionRetired
	// ErrVersionPinned reports a retirement blocked by an open holder
	// (a mounted disk, or an in-flight commit building on the version).
	ErrVersionPinned = blob.ErrVersionPinned
	// ErrCorruptTree reports a metadata segment-tree invariant
	// violation.
	ErrCorruptTree = blob.ErrCorruptTree
	// ErrInvalidWrite reports a malformed write set (empty, duplicate
	// or unsorted indices, oversized payload).
	ErrInvalidWrite = blob.ErrInvalidWrite
	// ErrNoReplica reports that every replica of a chunk's placement
	// group is down.
	ErrNoReplica = blob.ErrNoReplica

	// ErrClosed reports an operation on a closed Disk or Repo.
	ErrClosed = mirror.ErrClosed
	// ErrWrongNode reports a Disk operation from an activity on a
	// different node than the disk (disks are strictly node-local).
	ErrWrongNode = mirror.ErrWrongNode
	// ErrSynthetic reports a data-carrying operation on a synthetic
	// disk (costs modeled, no bytes materialized).
	ErrSynthetic = mirror.ErrSynthetic

	// ErrArchiveCorrupt reports a sync archive that fails structural
	// validation: truncation, a bad magic or format version, a
	// checksum mismatch, or records that violate their invariants.
	ErrArchiveCorrupt = reposync.ErrArchiveCorrupt
	// ErrSequenceGap reports a sync archive that is not the exact
	// successor of the last one imported (a skipped delta, a replay,
	// or a full archive for an image already tracked).
	ErrSequenceGap = reposync.ErrSequenceGap
	// ErrBaseMissing reports a delta archive whose base version the
	// importing repository never imported or has retired.
	ErrBaseMissing = reposync.ErrBaseMissing
	// ErrSourceMismatch reports a sync archive from a different
	// source repository than the one this importer syncs from.
	ErrSourceMismatch = reposync.ErrSourceMismatch
)

// NotFoundError carries the kind and identity of a missing object; it
// wraps ErrNotFound. Reach it with errors.As.
type NotFoundError = blob.NotFoundError

// PinnedError identifies which version a blocked retirement was pinned
// by; it wraps ErrVersionPinned. Reach it with errors.As.
type PinnedError = blob.PinnedError
