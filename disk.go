package blobvfs

import (
	"fmt"
	"io"
	"sync/atomic"

	"blobvfs/internal/mirror"
)

// diskOptions is the resolved per-disk configuration.
type diskOptions struct {
	real bool
}

// DiskOption configures one OpenDisk call.
type DiskOption func(*diskOptions)

// Synthetic opens the disk without materializing bytes: every access
// is charged on the fabric (lazy fetches, local hits, commits) but no
// data moves. This is what simulation-scale deployments use; a
// synthetic disk rejects ReadAt/WriteAt data access with ErrSynthetic
// while Read/Write (charge-only) work normally.
func Synthetic() DiskOption {
	return func(o *diskOptions) { o.real = false }
}

// Disk is an open mirrored image: the raw file the hypervisor sees on
// one node. Content is fetched lazily from the repository (or cohort
// peers) on first access; writes stay in the local mirror until
// Commit. Guest I/O must come from the owning activity; a Commit or
// Repo.Snapshot may overlap it from another.
type Disk struct {
	repo   *Repo
	im     *mirror.Image
	origin Snapshot
	closed atomic.Bool
}

// Size returns the image size in bytes.
func (d *Disk) Size() int64 { return d.im.Size() }

// Image returns the lineage currently backing the disk (it changes
// when Repo.Snapshot forks).
func (d *Disk) Image() ImageID { return d.im.BlobID() }

// Version returns the snapshot version the disk currently mirrors (it
// advances on Commit).
func (d *Disk) Version() Version { return d.im.Version() }

// Current returns the snapshot the disk currently mirrors.
func (d *Disk) Current() Snapshot {
	return Snapshot{Image: d.im.BlobID(), Version: d.im.Version()}
}

// Origin returns the snapshot the disk was opened from.
func (d *Disk) Origin() Snapshot { return d.origin }

// Dirty reports whether the disk has uncommitted local modifications.
func (d *Disk) Dirty() bool { return d.im.Dirty() }

// Stats returns a copy of the disk's access counters.
func (d *Disk) Stats() DiskStats { return d.im.Stats() }

// ReadAt reads len(p) bytes at offset off into p, fetching missing
// chunks from the repository. It fails with ErrOutOfRange beyond the
// image and ErrSynthetic on a synthetic disk; for the std-io
// contract (short reads, io.EOF) use IO.
func (d *Disk) ReadAt(ctx *Ctx, p []byte, off int64) (int, error) {
	return d.im.ReadAt(ctx, p, off)
}

// WriteAt writes p at offset off into the local mirror; the
// modification stays node-local until Commit.
func (d *Disk) WriteAt(ctx *Ctx, p []byte, off int64) (int, error) {
	return d.im.WriteAt(ctx, p, off)
}

// Read charges a read of [off, off+n) without moving data — the
// synthetic-disk access path the boot-trace driver uses.
func (d *Disk) Read(ctx *Ctx, off, n int64) error { return d.im.Read(ctx, off, n) }

// Write charges a write of [off, off+n) without moving data.
func (d *Disk) Write(ctx *Ctx, off, n int64) error { return d.im.Write(ctx, off, n) }

// Commit publishes the disk's local modifications as a new snapshot of
// its current lineage and returns it — the COMMIT primitive. Without
// local modifications the current snapshot is returned unchanged. To
// fork into a fresh lineage first, use Repo.Snapshot.
func (d *Disk) Commit(ctx *Ctx) (Snapshot, error) {
	v, err := d.im.Commit(ctx)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Image: d.im.BlobID(), Version: v}, nil
}

// Close releases the disk: its local modification metadata is
// persisted on the node (a later OpenDisk of the same snapshot there
// resumes where it left off) and the snapshot's open-pin is released,
// making it eligible for retirement. Close is idempotent and safe to
// call concurrently — a second Close neither double-unpins nor
// re-writes the modification metadata.
func (d *Disk) Close(ctx *Ctx) error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.im.Close(ctx)
	return nil
}

// IO binds the disk to an activity context, adapting it to the
// standard library's io interfaces: io.ReaderAt, io.WriterAt,
// io.ReadWriteSeeker and io.Closer. The binding follows std-io
// conventions — reads at or beyond the image end return io.EOF, a read
// crossing the end is short — so the disk composes with
// io.SectionReader, io.Copy, io.ReadFull and friends. Like the disk
// itself, a binding belongs to the bound activity.
func (d *Disk) IO(ctx *Ctx) *DiskIO {
	return &DiskIO{d: d, ctx: ctx}
}

// DiskIO is a Disk bound to one activity's context, satisfying the
// standard library's io interfaces. See Disk.IO.
//
// A binding belongs to the bound activity: like the disk's own
// methods, Read/Write/Seek must not be called from concurrent
// activities (the sequential position is deliberately unguarded — a
// bare mutex held across the demand-fetch fabric operations would
// stall the discrete-event scheduler; share the Disk and bind per
// activity instead).
type DiskIO struct {
	d   *Disk
	ctx *Ctx
	off int64 // sequential Read/Write/Seek position
}

var (
	_ io.ReaderAt        = (*DiskIO)(nil)
	_ io.WriterAt        = (*DiskIO)(nil)
	_ io.ReadWriteSeeker = (*DiskIO)(nil)
	_ io.Closer          = (*DiskIO)(nil)
)

// ReadAt implements io.ReaderAt.
func (f *DiskIO) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("blobvfs: read at negative offset %d: %w", off, ErrOutOfRange)
	}
	size := f.d.Size()
	if off >= size {
		return 0, io.EOF
	}
	eof := false
	if off+int64(len(p)) > size {
		p = p[:size-off]
		eof = true
	}
	n, err := f.d.ReadAt(f.ctx, p, off)
	if err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt. Writes past the image end fail with
// ErrOutOfRange: a virtual disk does not grow.
func (f *DiskIO) WriteAt(p []byte, off int64) (int, error) {
	return f.d.WriteAt(f.ctx, p, off)
}

// Read implements io.Reader at the binding's sequential position.
func (f *DiskIO) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// Write implements io.Writer at the binding's sequential position.
func (f *DiskIO) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (f *DiskIO) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = f.d.Size()
	default:
		return 0, fmt.Errorf("blobvfs: seek whence %d: %w", whence, ErrOutOfRange)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("blobvfs: seek to negative offset %d: %w", pos, ErrOutOfRange)
	}
	f.off = pos
	return pos, nil
}

// Close implements io.Closer by closing the underlying disk with the
// bound context.
func (f *DiskIO) Close() error { return f.d.Close(f.ctx) }
