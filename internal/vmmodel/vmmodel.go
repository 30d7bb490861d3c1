package vmmodel

import (
	"fmt"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// VirtualDisk is the VM-facing disk interface; it is implemented by
// mirror.Image, qcow2.Image and LocalRaw.
type VirtualDisk interface {
	Read(ctx *cluster.Ctx, off, n int64) error
	Write(ctx *cluster.Ctx, off, n int64) error
	Size() int64
}

// LocalRaw is a raw image file fully present on the node's local disk
// (the prepropagation baseline after broadcast). Reads are charged on
// the local disk with a reduced seek share, since the guest's
// readahead and the host page cache absorb most of the scattered-read
// positioning cost for a freshly written, contiguous file.
type LocalRaw struct {
	NodeID cluster.NodeID
	Bytes  int64
}

// Read charges a local-disk read.
func (d *LocalRaw) Read(ctx *cluster.Ctx, off, n int64) error {
	if off < 0 || off+n > d.Bytes {
		return fmt.Errorf("vmmodel: read [%d,%d) outside raw image %d", off, off+n, d.Bytes)
	}
	ctx.DiskRead(d.NodeID, n)
	return nil
}

// Write charges an asynchronous local-disk write.
func (d *LocalRaw) Write(ctx *cluster.Ctx, off, n int64) error {
	if off < 0 || off+n > d.Bytes {
		return fmt.Errorf("vmmodel: write [%d,%d) outside raw image %d", off, off+n, d.Bytes)
	}
	ctx.DiskWriteAsync(d.NodeID, n)
	return nil
}

// Size returns the image size.
func (d *LocalRaw) Size() int64 { return d.Bytes }

// TraceOp is one step of a VM disk trace.
type TraceOp struct {
	Off, Len int64
	Write    bool
	Think    float64 // CPU time consumed before issuing the op
}

// BootConfig parameterizes boot-trace generation. The defaults are
// calibrated so a boot against a fully local image takes ≈10 s and
// touches ≈110 MB of a 2 GB image, matching Fig. 4(a) and the ~13 GB /
// 110 instances of Fig. 4(d).
type BootConfig struct {
	ImageSize    int64   // bytes
	TouchedBytes int64   // total distinct bytes read during boot
	Extents      int     // number of sequentially-read extents ("files")
	MeanOpLen    int64   // mean read op size within an extent
	WriteOps     int     // small config/log writes during boot
	WriteLen     int64   // size of each boot write
	TotalThink   float64 // total CPU time spread over the trace
}

// DefaultBootConfig returns the calibrated boot model for the paper's
// 2 GB Debian image.
func DefaultBootConfig(imageSize int64) BootConfig {
	return BootConfig{
		ImageSize:    imageSize,
		TouchedBytes: 110 << 20,
		Extents:      220,
		MeanOpLen:    96 << 10,
		WriteOps:     60,
		WriteLen:     16 << 10,
		TotalThink:   5.0,
	}
}

// GenBootTrace produces a boot trace from cfg using rng. Extents are
// disjoint, randomly placed, and internally read in order; ops across
// extents follow extent order (the guest reads one file at a time).
func GenBootTrace(rng *sim.RNG, cfg BootConfig) []TraceOp {
	if cfg.Extents <= 0 || cfg.TouchedBytes <= 0 || cfg.ImageSize <= 0 {
		return nil
	}
	type extent struct{ off, len int64 }
	mean := cfg.TouchedBytes / int64(cfg.Extents)
	exts := make([]extent, 0, cfg.Extents)
	// Place extents on a shuffled grid so they never overlap: divide
	// the image into slots of 2*mean and pick Extents of them.
	slot := 2 * mean
	nslots := cfg.ImageSize / slot
	if nslots < int64(cfg.Extents) {
		nslots = int64(cfg.Extents)
		slot = cfg.ImageSize / nslots
	}
	perm := rng.Perm(int(nslots))
	for i := 0; i < cfg.Extents; i++ {
		l := int64(rng.Uniform(0.4, 1.6) * float64(mean))
		if l < 4096 {
			l = 4096
		}
		if l > slot {
			l = slot
		}
		off := int64(perm[i]) * slot
		if off+l > cfg.ImageSize {
			l = cfg.ImageSize - off
		}
		exts = append(exts, extent{off, l})
	}

	var ops []TraceOp
	for _, e := range exts {
		pos := e.off
		for pos < e.off+e.len {
			l := int64(rng.Uniform(0.25, 2.0) * float64(cfg.MeanOpLen))
			if l < 4096 {
				l = 4096
			}
			if pos+l > e.off+e.len {
				l = e.off + e.len - pos
			}
			ops = append(ops, TraceOp{Off: pos, Len: l})
			pos += l
		}
	}
	// Sprinkle small writes at random positions inside touched extents.
	for i := 0; i < cfg.WriteOps; i++ {
		e := exts[rng.Intn(len(exts))]
		off := e.off + rng.Int63n(max(1, e.len))
		l := cfg.WriteLen
		if off+l > cfg.ImageSize {
			l = cfg.ImageSize - off
		}
		at := rng.Intn(len(ops) + 1)
		ops = append(ops, TraceOp{})
		copy(ops[at+1:], ops[at:])
		ops[at] = TraceOp{Off: off, Len: l, Write: true}
	}
	// Spread think time: proportional shares with jitter.
	think := cfg.TotalThink / float64(len(ops))
	for i := range ops {
		ops[i].Think = think * rng.Uniform(0.25, 1.75)
	}
	return ops
}

// WithThinkJitter returns a copy of ops with freshly jittered think
// times summing to ~totalThink. All instances of a multideployment
// replay the same access pattern (they boot the same OS), but their
// CPU interleaving differs — this is the skew of §3.1.3 that spreads
// chunk accesses under concurrency.
func WithThinkJitter(ops []TraceOp, rng *sim.RNG, totalThink float64) []TraceOp {
	out := append([]TraceOp(nil), ops...)
	if len(out) == 0 {
		return out
	}
	think := totalThink / float64(len(out))
	for i := range out {
		out[i].Think = think * rng.Uniform(0.25, 1.75)
	}
	return out
}

// VM drives a virtual disk through traces and application phases.
type VM struct {
	Node cluster.NodeID
	Disk VirtualDisk
}

// Boot replays the trace against the VM's disk: CPU think time then
// the disk op, sequentially, exactly as a single-queue guest would.
func (vm *VM) Boot(ctx *cluster.Ctx, trace []TraceOp) error {
	for _, op := range trace {
		if op.Think > 0 {
			ctx.Compute(op.Think)
		}
		var err error
		if op.Write {
			err = vm.Disk.Write(ctx, op.Off, op.Len)
		} else {
			err = vm.Disk.Read(ctx, op.Off, op.Len)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
