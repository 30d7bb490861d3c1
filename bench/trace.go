package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/vmmodel"
)

// span is one timed call into a layer. Op groups the spans of one
// operation (an instance, or a live-io client); Parent is the span that
// caused this one, -1 for a root. V0/V1 are fabric seconds (0 on the
// live fabric, which has no clock); H0/H1 are host nanoseconds since
// the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	V0     float64 `json:"v0"`
	V1     float64 `json:"v1"`
	H0     int64   `json:"h0"`
	H1     int64   `json:"h1"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites need no branch of their own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	roots map[int]int // op → its "instance" root span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: make(map[int]int)}
}

// begin opens a span at fabric time now and returns its id.
func (t *tracer) begin(name string, op, parent int, now float64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, op, parent, now)
}

func (t *tracer) beginLocked(name string, op, parent int, now float64) int {
	h := time.Since(t.t0).Nanoseconds()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, V0: now, V1: now, H0: h, H1: h})
	return id
}

// end closes a span and stretches every ancestor to cover it: the
// "instance" and "vm.boot" spans are never closed by a call of their
// own, they last from their first child's start to their last child's
// end.
func (t *tracer) end(id int, now float64) {
	if t == nil {
		return
	}
	h := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for ; id >= 0; id = t.spans[id].Parent {
		s := &t.spans[id]
		s.V1, s.H1 = max(s.V1, now), max(s.H1, h)
	}
}

// root returns op's "instance" span, opening it on first use.
func (t *tracer) root(op int, now float64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[op]
	if !ok {
		id = t.beginLocked("instance", op, -1, now)
		t.roots[op] = id
	}
	return id
}

// tracedBackend decorates a middleware.Backend with spans around
// Prepare, Provision and Snapshot, and hands out traced disks.
type tracedBackend struct {
	middleware.Backend
	tr *tracer
	// boots: disk operations belong to a "vm.boot" span that opens when
	// Provision returns — the orchestrator starts the boot at that
	// instant and the boot ends with its last disk operation.
	boots bool
}

func (b *tracedBackend) Prepare(ctx *cluster.Ctx, nodes []cluster.NodeID) error {
	sp := b.tr.begin("orch.prepare", -1, -1, ctx.Now())
	defer func() { b.tr.end(sp, ctx.Now()) }()
	return b.Backend.Prepare(ctx, nodes)
}

func (b *tracedBackend) Provision(ctx *cluster.Ctx, i int, node cluster.NodeID) (vmmodel.VirtualDisk, error) {
	root := b.tr.root(i, ctx.Now())
	sp := b.tr.begin("facade.open_disk", i, root, ctx.Now())
	disk, err := b.Backend.Provision(ctx, i, node)
	b.tr.end(sp, ctx.Now())
	if err != nil {
		return nil, err
	}
	parent := root
	if b.boots {
		parent = b.tr.begin("vm.boot", i, root, ctx.Now())
	}
	return &tracedDisk{VirtualDisk: disk, tr: b.tr, op: i, parent: parent}, nil
}

func (b *tracedBackend) Snapshot(ctx *cluster.Ctx, i int, node cluster.NodeID, disk vmmodel.VirtualDisk) error {
	sp := b.tr.begin("facade.snapshot", i, b.tr.root(i, ctx.Now()), ctx.Now())
	defer func() { b.tr.end(sp, ctx.Now()) }()
	return b.Backend.Snapshot(ctx, i, node, disk.(*tracedDisk).VirtualDisk)
}

// tracedDisk decorates a vmmodel.VirtualDisk with a span per operation.
type tracedDisk struct {
	vmmodel.VirtualDisk
	tr         *tracer
	op, parent int
}

func (d *tracedDisk) Read(ctx *cluster.Ctx, off, n int64) error {
	sp := d.tr.begin("disk.read", d.op, d.parent, ctx.Now())
	defer func() { d.tr.end(sp, ctx.Now()) }()
	return d.VirtualDisk.Read(ctx, off, n)
}

func (d *tracedDisk) Write(ctx *cluster.Ctx, off, n int64) error {
	sp := d.tr.begin("disk.write", d.op, d.parent, ctx.Now())
	defer func() { d.tr.end(sp, ctx.Now()) }()
	return d.VirtualDisk.Write(ctx, off, n)
}

// traceMetrics derives the trace.* metrics. Durations are fabric
// seconds on the sim workloads and host seconds on live-io.
func (t *tracer) traceMetrics(hostClock bool) map[string]float64 {
	dur := func(s *span) float64 {
		if hostClock {
			return float64(s.H1-s.H0) / 1e9
		}
		return s.V1 - s.V0
	}
	// A span's self time is its duration minus what its children cover.
	// Children of one span never overlap here: each operation is a
	// single thread of control.
	covered := make([]float64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			covered[p] += dur(&t.spans[i])
		}
	}
	var open, snap []float64
	var instTotal, readTotal, thinkTotal float64
	readByOp := make(map[int]float64)
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "instance":
			instTotal += dur(s)
		case "facade.open_disk":
			open = append(open, dur(s))
		case "facade.snapshot":
			snap = append(snap, dur(s))
		case "disk.read":
			readTotal += dur(s)
			readByOp[s.Op] += dur(s)
		case "vm.boot":
			thinkTotal += dur(s) - covered[i]
		}
	}
	reads := make([]float64, 0, len(readByOp))
	for _, v := range readByOp {
		reads = append(reads, v)
	}
	return map[string]float64{
		"trace.open_disk_p50_s": quantile(open, 0.5),
		"trace.read_wait_p50_s": quantile(reads, 0.5),
		"trace.read_wait_share": ratio(readTotal, instTotal),
		"trace.think_share":     ratio(thinkTotal, instTotal),
		"trace.snapshot_p50_s":  quantile(snap, 0.5),
	}
}

// write stores the spans as out/trace-<workload>.json next to the
// benchmark's sources.
func (t *tracer) write(workload string, seed int64, hostClock bool) (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	clock := "fabric"
	if hostClock {
		clock = "host"
	}
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, clock, t.spans})
	if err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
