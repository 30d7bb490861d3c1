// Package mirror implements the paper's core contribution: the
// mirroring module that exposes a BlobSeer snapshot to the hypervisor
// as a plain raw image file on the local disk, while lazily fetching
// content on first access and keeping all modifications local until a
// snapshot is requested (paper §3.1.2, §3.3, §4.2).
//
// In the paper the module is a FUSE file system; here it is a library
// with the same structure. The R/W translator turns hypervisor reads
// and writes into local and remote operations; the local modification
// manager tracks, per chunk, one contiguous mirrored region and one
// contiguous dirty region, which bounds fragmentation metadata to
// O(chunks) (strategy 2 of §3.3). In memory that is one bit per chunk,
// set when the chunk is fully mirrored, plus an entry for each chunk
// that is partly mirrored or dirty, so an open image costs what it
// touched. Remote reads always fetch the full minimal set of chunks
// covering the requested range (strategy 1).
//
// The control primitives CLONE and COMMIT — ioctls in the paper — are
// the Image.Clone and Image.Commit methods.
//
// Guest writes are the only copy of their bytes until COMMIT, so their
// write-back shares the disk with reads. Fetched chunks are a clean copy
// of stored data, so theirs waits for an idle disk (DiskWriteIdle).
//
// When the module is attached to a peer-to-peer sharing cohort
// (SetSharer), its node holds every chunk it mirrors clean — from the
// fetch's landing, or the commit — so cohort siblings can fetch it from
// this node instead of the providers; an image retracts chunks whose
// local copy diverges from the published content (guest writes).
package mirror
