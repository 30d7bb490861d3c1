package pvfs

import (
	"fmt"
	"hash/fnv"
	"sync"

	"blobvfs/internal/cluster"
)

// FS is a deployed PVFS instance.
type FS struct {
	servers []cluster.NodeID
	stripe  int64

	mu    sync.Mutex
	files map[string]*fileMeta
}

type fileMeta struct {
	name string
	size int64
	home int    // index of the metadata server for this file
	data []byte // nil for synthetic files
}

// New deploys a file system striping over the given servers with the
// given stripe size in bytes.
func New(servers []cluster.NodeID, stripe int) *FS {
	if len(servers) == 0 {
		panic("pvfs: need at least one server")
	}
	if stripe <= 0 {
		panic("pvfs: stripe must be positive")
	}
	return &FS{servers: servers, stripe: int64(stripe), files: make(map[string]*fileMeta)}
}

// metaServer returns the node handling a file's metadata (distributed
// by name hash).
func (fs *FS) metaServer(name string) cluster.NodeID {
	h := fnv.New32a()
	h.Write([]byte(name))
	return fs.servers[int(h.Sum32())%len(fs.servers)]
}

// stripeServer returns the node storing stripe index si of a file.
func (fs *FS) stripeServer(f *fileMeta, si int64) cluster.NodeID {
	return fs.servers[(int64(f.home)+si)%int64(len(fs.servers))]
}

// Create makes a file of fixed size. When real is true the file carries
// actual bytes (initially zero); synthetic files only track geometry.
func (fs *FS) Create(ctx *cluster.Ctx, name string, size int64, real bool) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("pvfs: negative size")
	}
	ctx.RPC(fs.metaServer(name), 64, 16)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("pvfs: file %q exists", name)
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	fm := &fileMeta{name: name, size: size, home: int(h.Sum32()) % len(fs.servers)}
	if real {
		fm.data = make([]byte, size)
	}
	fs.files[name] = fm
	return &File{fs: fs, meta: fm}, nil
}

// Open returns a handle to an existing file, charging one metadata RPC;
// geometry is cached in the handle afterwards.
func (fs *FS) Open(ctx *cluster.Ctx, name string) (*File, error) {
	ctx.RPC(fs.metaServer(name), 32, 48)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pvfs: file %q not found", name)
	}
	return &File{fs: fs, meta: fm}, nil
}

// Exists reports (without cost) whether a file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// File is an open handle.
type File struct {
	fs   *FS
	meta *fileMeta
}

// Size returns the file size.
func (f *File) Size() int64 { return f.meta.size }

// Name returns the file name.
func (f *File) Name() string { return f.meta.name }

// segment is one per-server piece of a byte range.
type segment struct {
	server cluster.NodeID
	off, n int64 // file-relative
}

// segments splits [off, off+n) by stripe boundary.
func (f *File) segments(off, n int64) []segment {
	var segs []segment
	for n > 0 {
		si := off / f.fs.stripe
		in := off % f.fs.stripe
		take := f.fs.stripe - in
		if take > n {
			take = n
		}
		segs = append(segs, segment{server: f.fs.stripeServer(f.meta, si), off: off, n: take})
		off += take
		n -= take
	}
	return segs
}

// ReadAt reads [off, off+n) into p (which may be nil for synthetic
// cost-only reads; otherwise len(p) must be ≥ n). Every touched stripe
// costs one request to its server — requested bytes only, no prefetch.
// Stripes are fetched in parallel, as PVFS clients do.
func (f *File) ReadAt(ctx *cluster.Ctx, p []byte, off, n int64) error {
	if err := f.check(p, off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	segs := f.segments(off, n)
	f.parallel(ctx, "pvfs-read", len(segs), func(cc *cluster.Ctx, i int) {
		s := segs[i]
		cc.DiskRead(s.server, s.n)
		cc.RPC(s.server, 32, s.n)
	})
	if p != nil {
		copy(p[:n], f.meta.data[off:off+n])
	}
	return nil
}

// WriteAt writes [off, off+n) from p (nil for synthetic). Each touched
// stripe costs one request and one disk write on its server.
func (f *File) WriteAt(ctx *cluster.Ctx, p []byte, off, n int64) error {
	if err := f.check(p, off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	segs := f.segments(off, n)
	f.parallel(ctx, "pvfs-write", len(segs), func(cc *cluster.Ctx, i int) {
		s := segs[i]
		cc.RPC(s.server, s.n+32, 16)
		cc.DiskWrite(s.server, s.n)
	})
	if p != nil {
		copy(f.meta.data[off:off+n], p[:n])
	}
	return nil
}

func (f *File) check(p []byte, off, n int64) error {
	if off < 0 || n < 0 || off+n > f.meta.size {
		return fmt.Errorf("pvfs: access [%d,%d) outside file %q of size %d", off, off+n, f.meta.name, f.meta.size)
	}
	if p != nil && f.meta.data == nil {
		return fmt.Errorf("pvfs: data access on synthetic file %q", f.meta.name)
	}
	if p != nil && int64(len(p)) < n {
		return fmt.Errorf("pvfs: buffer of %d bytes for %d-byte access", len(p), n)
	}
	return nil
}

// parallel fans out over at most 16 concurrent stripe requests (the
// client's connection window), deterministically striped.
func (f *File) parallel(ctx *cluster.Ctx, name string, n int, fn func(cc *cluster.Ctx, i int)) {
	const window = 16
	if n <= 1 {
		if n == 1 {
			fn(ctx, 0)
		}
		return
	}
	workers := window
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
