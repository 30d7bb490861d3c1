package blobvfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"blobvfs"
)

func img(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*11)
	}
	return b
}

func newRepo(t *testing.T, nodes int, opts ...blobvfs.Option) (*blobvfs.LiveCluster, *blobvfs.Repo) {
	t.Helper()
	fab := blobvfs.NewLiveCluster(nodes)
	repo, err := blobvfs.Open(fab, append([]blobvfs.Option{blobvfs.WithChunkSize(4 << 10)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return fab, repo
}

func TestCreateOpenSnapshotDownload(t *testing.T) {
	fab, repo := newRepo(t, 4)
	fab.Run(func(ctx *blobvfs.Ctx) {
		base := img(64<<10, 1)
		ref, err := repo.Create(ctx, "debian", base)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := repo.Resolve("debian"); !ok || got != ref {
			t.Fatal("name not registered")
		}
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		patch := []byte("configured!")
		if _, err := disk.WriteAt(ctx, patch, 1000); err != nil {
			t.Fatal(err)
		}
		if !disk.Dirty() {
			t.Fatal("disk not dirty after write")
		}
		snap, err := repo.Snapshot(ctx, disk, true)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Image == ref.Image {
			t.Fatal("fresh snapshot did not clone into a new lineage")
		}
		if disk.Current() != snap {
			t.Fatalf("disk mirrors %+v, want %+v", disk.Current(), snap)
		}
		if disk.Origin() != ref {
			t.Fatalf("origin = %+v, want %+v", disk.Origin(), ref)
		}
		repo.Tag("debian-configured", snap)

		// Download the snapshot: base + patch.
		size, err := repo.Size(ctx, snap)
		if err != nil || size != 64<<10 {
			t.Fatalf("Size = %d, %v", size, err)
		}
		buf := make([]byte, size)
		if err := repo.Download(ctx, snap, buf); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), base...)
		copy(want[1000:], patch)
		if !bytes.Equal(buf, want) {
			t.Fatal("downloaded snapshot wrong")
		}
		// The original image is untouched.
		if err := repo.Download(ctx, ref, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, base) {
			t.Fatal("original image modified")
		}
	})
}

func TestSnapshotWithoutForkStaysInLineage(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repo.Create(ctx, "a", img(16<<10, 2))
		disk, _ := repo.OpenDisk(ctx, ctx.Node(), ref)
		if _, err := disk.WriteAt(ctx, []byte{9}, 0); err != nil {
			t.Fatal(err)
		}
		snap, err := disk.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Image != ref.Image || snap.Version != ref.Version+1 {
			t.Fatalf("snapshot = %+v, want same image next version", snap)
		}
	})
}

func TestCloneWithoutOpen(t *testing.T) {
	fab, repo := newRepo(t, 3)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repo.Create(ctx, "a", img(16<<10, 3))
		clone, err := repo.Clone(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if clone.Image == ref.Image {
			t.Fatal("clone did not create a new lineage")
		}
		buf := make([]byte, 16<<10)
		if err := repo.Download(ctx, clone, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, img(16<<10, 3)) {
			t.Fatal("clone contents differ")
		}
	})
}

func TestCreateSynthetic(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, err := repo.CreateSynthetic(ctx, "big", 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		size, err := repo.Size(ctx, ref)
		if err != nil || size != 8<<20 {
			t.Fatalf("Size = %d, %v", size, err)
		}
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref, blobvfs.Synthetic())
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Read(ctx, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		// Data access on a synthetic disk is a typed failure.
		if _, err := disk.ReadAt(ctx, make([]byte, 16), 0); !errors.Is(err, blobvfs.ErrSynthetic) {
			t.Fatalf("data read on synthetic disk = %v, want ErrSynthetic", err)
		}
	})
}

func TestNamesAndTags(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		r1, _ := repo.Create(ctx, "x", img(4096, 1))
		repo.Tag("y", r1)
		names := repo.Names()
		if len(names) != 2 {
			t.Fatalf("Names = %v", names)
		}
		if _, ok := repo.Resolve("z"); ok {
			t.Fatal("unknown name resolved")
		}
		repo.Tag("x", blobvfs.Snapshot{Image: r1.Image, Version: r1.Version}) // retag is fine
		// Names is sorted, so two calls agree whatever the map order.
		for i := 0; i < 16; i++ {
			repo.Tag(fmt.Sprintf("n%02d", (i*7)%16), r1)
		}
		first := repo.Names()
		if !slices.IsSorted(first) || len(first) != 18 {
			t.Fatalf("Names = %v, want 18 sorted names", first)
		}
		if again := repo.Names(); !slices.Equal(first, again) {
			t.Fatalf("Names changed between calls: %v then %v", first, again)
		}
	})
}

func TestOpenValidation(t *testing.T) {
	fab := blobvfs.NewLiveCluster(4)
	for _, tc := range []struct {
		name string
		opts []blobvfs.Option
	}{
		{"bad chunk size", []blobvfs.Option{blobvfs.WithChunkSize(0)}},
		{"bad replicas", []blobvfs.Option{blobvfs.WithReplicas(9)}},
		{"provider outside cluster", []blobvfs.Option{blobvfs.WithProviders(7)}},
		{"manager outside cluster", []blobvfs.Option{blobvfs.WithManager(11)}},
		{"topology not covering cluster", []blobvfs.Option{blobvfs.WithTopology(
			blobvfs.Topology{Zones: 2, RacksPerZone: 1, NodesPerRack: 3,
				RackBandwidth: 1, ZoneBandwidth: 1})}},
		{"topology zero bandwidth", []blobvfs.Option{blobvfs.WithTopology(
			blobvfs.Topology{Zones: 2, RacksPerZone: 1, NodesPerRack: 2})}},
	} {
		if _, err := blobvfs.Open(fab, tc.opts...); !errors.Is(err, blobvfs.ErrOutOfRange) {
			t.Errorf("%s: Open err = %v, want ErrOutOfRange", tc.name, err)
		}
	}
	if _, err := blobvfs.Open(nil); err == nil {
		t.Error("Open(nil) succeeded")
	}
}

// TestWithTopologyRoundTrip: a topology-aware repo on the live fabric
// stores and returns the same bytes as a flat one — zone-spread
// placement and nearest-first reads change where copies live, never
// what a read returns.
func TestWithTopologyRoundTrip(t *testing.T) {
	fab, repo := newRepo(t, 8,
		blobvfs.WithReplicas(2),
		blobvfs.WithP2P(),
		blobvfs.WithTopology(blobvfs.Topology{
			Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
			RackBandwidth: 1e9, ZoneBandwidth: 1e9,
		}))
	fab.Run(func(ctx *blobvfs.Ctx) {
		want := img(64<<10, 3)
		ref, err := repo.Create(ctx, "base", want)
		if err != nil {
			t.Fatal(err)
		}
		// Read from a node in each zone: both must see identical bytes.
		for _, node := range []blobvfs.NodeID{1, 6} {
			node := node
			task := ctx.Go("read", node, func(rctx *blobvfs.Ctx) {
				got := make([]byte, len(want))
				if err := repo.Download(rctx, ref, got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("node %d read wrong bytes through aware placement", node)
				}
			})
			ctx.Wait(task)
		}
	})
}

func TestRequestValidation(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		if _, err := repo.Create(ctx, "e", nil); !errors.Is(err, blobvfs.ErrInvalidWrite) {
			t.Errorf("empty upload = %v, want ErrInvalidWrite", err)
		}
		ref, _ := repo.Create(ctx, "a", img(4096, 1))
		if err := repo.Download(ctx, ref, make([]byte, 10)); !errors.Is(err, blobvfs.ErrOutOfRange) {
			t.Errorf("short download buffer = %v, want ErrOutOfRange", err)
		}
		if _, err := repo.Size(ctx, blobvfs.Snapshot{Image: 99, Version: 1}); !errors.Is(err, blobvfs.ErrNotFound) {
			t.Errorf("unknown image = %v, want ErrNotFound", err)
		}
	})
}

func TestDefaultOptions(t *testing.T) {
	fab := blobvfs.NewLiveCluster(5)
	repo, err := blobvfs.Open(fab)
	if err != nil {
		t.Fatal(err)
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, err := repo.Create(ctx, "d", img(300<<10, 7))
		if err != nil {
			t.Fatal(err)
		}
		// Default chunk size 256 KB: a 300 KB image occupies 2 chunks.
		inf, err := repo.System().VM.Info(ctx, ref.Image)
		if err != nil {
			t.Fatal(err)
		}
		if inf.ChunkSize != 256<<10 || inf.Chunks() != 2 {
			t.Fatalf("geometry = %+v", inf)
		}
	})
}

// TestTypedErrorsEndToEnd: the sentinel taxonomy survives every layer
// crossing — errors raised deep in internal/blob and internal/mirror
// match the façade's re-exported values through errors.Is.
func TestTypedErrorsEndToEnd(t *testing.T) {
	fab, repo := newRepo(t, 3)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, err := repo.Create(ctx, "base", img(32<<10, 4))
		if err != nil {
			t.Fatal(err)
		}
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}

		// Out-of-range access through the mirror layer.
		if _, err := disk.ReadAt(ctx, make([]byte, 16), disk.Size()); !errors.Is(err, blobvfs.ErrOutOfRange) {
			t.Errorf("read past end = %v, want ErrOutOfRange", err)
		}
		// Missing objects through the version manager.
		if _, err := repo.OpenDisk(ctx, ctx.Node(), blobvfs.Snapshot{Image: 42, Version: 1}); !errors.Is(err, blobvfs.ErrNotFound) {
			t.Errorf("open unknown image = %v, want ErrNotFound", err)
		}
		var nf *blobvfs.NotFoundError
		if _, err := repo.Versions(ctx, 42); !errors.As(err, &nf) {
			t.Errorf("versions of unknown image = %v, want *NotFoundError", err)
		}
		// Pinned version: the open disk pins what it mirrors.
		if err := repo.Retire(ctx, ref); !errors.Is(err, blobvfs.ErrVersionPinned) {
			t.Errorf("retire of mounted snapshot = %v, want ErrVersionPinned", err)
		}
		var pe *blobvfs.PinnedError
		if err := repo.Retire(ctx, ref); !errors.As(err, &pe) {
			t.Errorf("retire of mounted snapshot = %v, want *PinnedError", err)
		} else if pe.ID != ref.Image || pe.V != ref.Version {
			t.Errorf("pinned detail = %d@%d, want %d@%d", pe.ID, pe.V, ref.Image, ref.Version)
		}
		// Retired version: close, retire, reopen.
		if err := disk.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if err := repo.Retire(ctx, ref); err != nil {
			t.Fatalf("retire of unpinned snapshot: %v", err)
		}
		if _, err := repo.OpenDisk(ctx, ctx.Node(), ref); !errors.Is(err, blobvfs.ErrVersionRetired) {
			t.Errorf("open retired snapshot = %v, want ErrVersionRetired", err)
		}
		// Operations on a closed disk.
		if _, err := disk.Commit(ctx); !errors.Is(err, blobvfs.ErrClosed) {
			t.Errorf("commit on closed disk = %v, want ErrClosed", err)
		}
		// Wrong-node open: a disk is strictly node-local.
		if _, err := repo.OpenDisk(ctx, 2, ref); !errors.Is(err, blobvfs.ErrWrongNode) {
			t.Errorf("open for another node = %v, want ErrWrongNode", err)
		}
	})
}

// TestVersionsAndRetention: Versions lists live versions only, and
// RetireOld applies the keep-last-K window to a disk's lineage.
func TestVersionsAndRetention(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repo.Create(ctx, "a", img(16<<10, 5))
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		// No dirty chunks yet, so the fork is just the O(1) CLONE: the
		// disk now mirrors v1 of its own lineage.
		snap, err := repo.Snapshot(ctx, disk, true)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the same hot chunk each cycle, so every retired
		// version's copy of it becomes exclusive garbage.
		for i := 0; i < 3; i++ {
			if _, err := disk.WriteAt(ctx, []byte{byte(i + 1)}, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := disk.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
		vs, err := repo.Versions(ctx, snap.Image)
		if err != nil || len(vs) != 4 {
			t.Fatalf("Versions = %v, %v; want 4 live", vs, err)
		}
		// Keep the last 2: of v1..v4, v3 and v4 stay, v1 and v2 retire.
		n, err := repo.RetireOld(ctx, disk, 2)
		if err != nil || n != 2 {
			t.Fatalf("RetireOld = %d, %v; want 2", n, err)
		}
		vs, err = repo.Versions(ctx, snap.Image)
		if err != nil || len(vs) != 2 {
			t.Fatalf("Versions after retention = %v, %v; want [3 4]", vs, err)
		}
		rep, err := repo.GC(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks == 0 {
			t.Fatal("GC reclaimed nothing after retiring 3 versions")
		}
	})
}

// TestDiskIOStandardInterfaces: the std-io binding follows io
// conventions — ReadFull, SectionReader, Copy, Seek and EOF behavior.
func TestDiskIOStandardInterfaces(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		base := img(20<<10, 6)
		ref, _ := repo.Create(ctx, "a", base)
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		f := disk.IO(ctx)

		// io.ReaderAt via io.SectionReader.
		sec := io.NewSectionReader(f, 1000, 500)
		got := make([]byte, 500)
		if _, err := io.ReadFull(sec, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base[1000:1500]) {
			t.Fatal("section read wrong")
		}

		// io.Reader + io.Copy drains the whole image.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		n, err := io.Copy(&sink, f)
		if err != nil || n != int64(len(base)) {
			t.Fatalf("Copy = %d, %v", n, err)
		}
		if !bytes.Equal(sink.Bytes(), base) {
			t.Fatal("copied image differs")
		}

		// Reads at and past the end follow io.ReaderAt EOF rules.
		if _, err := f.ReadAt(make([]byte, 1), int64(len(base))); err != io.EOF {
			t.Fatalf("read at end = %v, want io.EOF", err)
		}
		if n, err := f.ReadAt(make([]byte, 100), int64(len(base))-50); n != 50 || err != io.EOF {
			t.Fatalf("read crossing end = %d, %v; want 50, io.EOF", n, err)
		}

		// io.WriterAt, then read back.
		if _, err := f.WriteAt([]byte("hello"), 2000); err != nil {
			t.Fatal(err)
		}
		got = make([]byte, 5)
		if _, err := f.ReadAt(got, 2000); err != nil {
			t.Fatal(err)
		}
		if string(got) != "hello" {
			t.Fatal("write-read through std io failed")
		}
		// Writes cannot grow the disk.
		if _, err := f.WriteAt([]byte("x"), int64(len(base))); !errors.Is(err, blobvfs.ErrOutOfRange) {
			t.Fatalf("write past end = %v, want ErrOutOfRange", err)
		}

		// io.Closer closes the underlying disk.
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.ReadAt(ctx, got, 0); !errors.Is(err, blobvfs.ErrClosed) {
			t.Fatalf("read after Close = %v, want ErrClosed", err)
		}
	})
}

// TestForeignDiskRejected: a disk opened on one repo cannot drive
// lifecycle operations on another — image IDs are per-repository, so
// acting on a foreign disk would silently hit an unrelated image.
func TestForeignDiskRejected(t *testing.T) {
	fab := blobvfs.NewLiveCluster(2)
	repoA, err := blobvfs.Open(fab, blobvfs.WithChunkSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	repoB, err := blobvfs.Open(fab, blobvfs.WithChunkSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repoB.Create(ctx, "b", img(8<<10, 3))
		disk, err := repoB.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repoA.Snapshot(ctx, disk, false); err == nil {
			t.Error("foreign disk accepted by Snapshot")
		}
		if _, err := repoA.RetireOld(ctx, disk, 1); err == nil {
			t.Error("foreign disk accepted by RetireOld")
		}
	})
}

// TestRetireOldSparesUnforkedLineage: retention through RetireOld
// never touches a lineage the disk did not fork into — in-lineage
// commits on a shared image leave its older versions alone, even when
// they fall outside the keep window.
func TestRetireOldSparesUnforkedLineage(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repo.Create(ctx, "shared", img(16<<10, 9))
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := disk.WriteAt(ctx, []byte{byte(i)}, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := disk.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
		n, err := repo.RetireOld(ctx, disk, 1)
		if err != nil || n != 0 {
			t.Fatalf("RetireOld on unforked shared lineage = %d, %v; want 0 (no-op)", n, err)
		}
		vs, err := repo.Versions(ctx, ref.Image)
		if err != nil || len(vs) != 3 {
			t.Fatalf("Versions = %v, %v; want all 3 still live", vs, err)
		}
	})
}

// TestShareSingleCohort: a repo carries at most one sharing cohort —
// a Share for a second image is refused instead of silently rewiring
// the first cohort's modules, and re-Share of the registered image
// stays true.
func TestShareSingleCohort(t *testing.T) {
	fab, repo := newRepo(t, 4, blobvfs.WithP2P())
	fab.Run(func(ctx *blobvfs.Ctx) {
		a, _ := repo.CreateSynthetic(ctx, "a", 64<<10)
		b, _ := repo.CreateSynthetic(ctx, "b", 64<<10)
		nodes := []blobvfs.NodeID{0, 1, 2}
		if !repo.Share(ctx, a.Image, nodes) {
			t.Fatal("first Share refused")
		}
		if repo.Share(ctx, b.Image, nodes) {
			t.Fatal("second image joined the repo's cohort slot")
		}
		if !repo.Share(ctx, a.Image, nodes) {
			t.Fatal("re-Share of the registered image refused")
		}
		if _, ok := repo.SharingStats(a.Image); !ok {
			t.Fatal("no stats for the registered cohort")
		}
		if _, ok := repo.SharingStats(b.Image); ok {
			t.Fatal("stats reported for a refused cohort")
		}
	})
}

// TestShareWithoutP2P: Share is an inert no-op without WithP2P.
func TestShareWithoutP2P(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		a, _ := repo.CreateSynthetic(ctx, "a", 64<<10)
		if repo.Share(ctx, a.Image, []blobvfs.NodeID{0, 1}) {
			t.Fatal("Share active without WithP2P")
		}
	})
}

// TestCloseIdempotent: double and concurrent Close on Disk and Repo
// must be safe — the snapshot pin is released exactly once and the
// modification metadata written exactly once.
func TestCloseIdempotent(t *testing.T) {
	fab, repo := newRepo(t, 2)
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, _ := repo.Create(ctx, "a", img(16<<10, 7))
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		if pins := repo.System().VM.Pins(ref.Image, ref.Version); pins != 1 {
			t.Fatalf("pins after open = %d, want 1", pins)
		}
		// A second disk on the same snapshot holds its own pin; closing
		// the first one twice must release exactly one.
		if _, err := repo.OpenDisk(ctx, 1, ref); err == nil {
			t.Fatal("open for node 1 from node 0 must fail (wrong node)")
		}
		done := ctx.Go("peer", 1, func(cc *blobvfs.Ctx) {
			d, err := repo.OpenDisk(cc, 1, ref)
			if err != nil {
				t.Errorf("open on node 1: %v", err)
				return
			}
			d.Close(cc)
			if d, err = repo.OpenDisk(cc, 1, ref); err != nil {
				t.Errorf("reopen on node 1: %v", err)
			}
			_ = d // left open: its pin must survive the other disk's closes
		})
		ctx.Wait(done)
		if pins := repo.System().VM.Pins(ref.Image, ref.Version); pins != 2 {
			t.Fatalf("pins after second open = %d, want 2", pins)
		}

		// Concurrent + repeated close of disk 1.
		tasks := []blobvfs.Task{
			ctx.Go("close-a", 0, func(cc *blobvfs.Ctx) { disk.Close(cc) }),
			ctx.Go("close-b", 0, func(cc *blobvfs.Ctx) { disk.Close(cc) }),
		}
		ctx.WaitAll(tasks)
		if err := disk.Close(ctx); err != nil {
			t.Fatalf("third close: %v", err)
		}
		if pins := repo.System().VM.Pins(ref.Image, ref.Version); pins != 1 {
			t.Fatalf("pins after triple close of first disk = %d, want 1 (double-unpin!)", pins)
		}

		// Repo.Close is idempotent too, and gates lifecycle calls.
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := repo.Create(ctx, "late", img(4096, 8)); !errors.Is(err, blobvfs.ErrClosed) {
			t.Fatalf("create after repo close = %v, want ErrClosed", err)
		}
		if _, err := repo.OpenDisk(ctx, 0, ref); !errors.Is(err, blobvfs.ErrClosed) {
			t.Fatalf("open after repo close = %v, want ErrClosed", err)
		}
	})
}
