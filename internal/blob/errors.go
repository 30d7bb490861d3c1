package blob

import (
	"errors"
	"fmt"
)

// The package's error taxonomy: every failure path wraps one of these
// sentinels with %w, so callers — including the public blobvfs façade,
// which re-exports them — can branch with errors.Is/errors.As without
// ever matching message text.
var (
	// ErrNotFound reports a missing blob, version, metadata node or
	// chunk. Structured detail (what kind of object, which one) rides
	// along as *NotFoundError.
	ErrNotFound = errors.New("not found")

	// ErrOutOfRange reports an offset, length, chunk index or version
	// number outside the addressed object's bounds.
	ErrOutOfRange = errors.New("out of range")

	// ErrVersionRetired reports an access to a version that was
	// logically deleted by retirement: it existed, but retention removed
	// it and its storage is (or will be) reclaimed.
	ErrVersionRetired = errors.New("version retired")

	// ErrVersionPinned reports an attempt to retire a version something
	// still holds open. Structured detail rides along as *PinnedError.
	ErrVersionPinned = errors.New("version pinned")

	// ErrCorruptTree reports a segment-tree invariant violation — a node
	// whose recorded range disagrees with its position, or a leaf where
	// an inner node must be.
	ErrCorruptTree = errors.New("corrupt metadata tree")

	// ErrInvalidWrite reports a malformed write set: empty, duplicate
	// chunk indices, unsorted dirty leaves, or oversized payloads.
	ErrInvalidWrite = errors.New("invalid write set")

	// ErrNoReplica reports that no live provider replica could serve a
	// chunk operation (all replicas of its placement group are down).
	ErrNoReplica = errors.New("no live replica")
)

// NotFoundError carries the kind ("blob", "version", "metadata node",
// "chunk") and identity of a missing object. It wraps ErrNotFound.
type NotFoundError struct {
	Kind string
	What any
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("blob: %s %v not found", e.Kind, e.What)
}

// Unwrap makes errors.Is(err, ErrNotFound) true for every miss.
func (e *NotFoundError) Unwrap() error { return ErrNotFound }

// notFound builds a *NotFoundError.
func notFound(kind string, what any) error { return &NotFoundError{Kind: kind, What: what} }

// retired builds the error for an access to a retired version.
func retired(id ID, v Version) error {
	return fmt.Errorf("blob: version %d@%d: %w", id, v, ErrVersionRetired)
}
