// Package sync implements differential snapshot export/import: the
// disconnected-repository counterpart of the multisnapshotting design.
//
// Within one repository, successive versions of an image share almost
// all of their chunks and tree nodes through shadowing and cloning
// (Fig. 3 of the paper). This package makes those deltas portable: an
// export walks the segment trees of a version range (from, to] with
// the garbage collector's reachability marking and serializes exactly
// the tree nodes and chunks unreachable from the base version into a
// self-describing archive; an import replays the archive into another
// repository seeded at the base, re-publishing the versions so disks,
// retention and GC work on the importing side as if the snapshots had
// been committed locally.
//
// The workflow mirrors oc-mirror's mirror-to-disk / disk-to-mirror
// shape: archives carry the source repository's UUID and a per-image
// monotone sequence number, and a Tracker on the importing side
// accepts a full archive (base 0) only for a new image and a delta
// only when it is the exact successor of the last archive applied —
// a gap, a replay, or an archive from a different source fails with a
// typed error before anything is written.
//
// The archive format and its invariants are documented in
// docs/sync.md.
package sync
