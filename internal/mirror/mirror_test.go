package mirror

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// testRig deploys storage + one mirroring module per node on a live
// fabric and uploads a real base image.
type testRig struct {
	fab     *cluster.Live
	sys     *blob.System
	modules []*Module
	imageID blob.ID
	imageV  blob.Version
	base    []byte
}

func newRig(t testing.TB, nodes int, size int64, chunkSize int) *testRig {
	t.Helper()
	fab := cluster.NewLive(nodes)
	provs := make([]cluster.NodeID, nodes)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := blob.NewSystem(provs, 0, 1)
	rig := &testRig{fab: fab, sys: sys}
	for i := 0; i < nodes; i++ {
		rig.modules = append(rig.modules, NewModule(cluster.NodeID(i), blob.NewClient(sys)))
	}
	rig.base = make([]byte, size)
	for i := range rig.base {
		rig.base[i] = byte(i*13 + 7)
	}
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, size, chunkSize)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		v, err := c.WriteAt(ctx, id, 0, rig.base, 0)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		rig.imageID, rig.imageV = id, v
	})
	return rig
}

func (r *testRig) run(t *testing.T, fn func(ctx *cluster.Ctx)) {
	t.Helper()
	r.fab.Run(fn)
}

func (r *testRig) open(t *testing.T, ctx *cluster.Ctx, node int) *Image {
	t.Helper()
	im, err := r.modules[node].Open(ctx, r.imageID, r.imageV, true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return im
}

func TestLazyReadFetchesOnlyCoveringChunks(t *testing.T) {
	rig := newRig(t, 4, 64<<10, 4<<10) // 16 chunks of 4 KiB
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		buf := make([]byte, 100)
		// Read 100 bytes spanning chunks 2 and 3 (offset 12k-100..).
		off := int64(3*4096 - 50)
		if _, err := im.ReadAt(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, rig.base[off:off+100]) {
			t.Fatal("read data mismatch")
		}
		st := im.Stats()
		if st.RemoteChunkFetches != 2 {
			t.Fatalf("fetched %d chunks, want 2 (minimal covering set)", st.RemoteChunkFetches)
		}
		if st.RemoteBytesFetched != 2*4096 {
			t.Fatalf("fetched %d bytes, want %d (whole chunks)", st.RemoteBytesFetched, 2*4096)
		}
		// Re-reading the same region is a local hit: no new fetches.
		if _, err := im.ReadAt(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
		if im.Stats().RemoteChunkFetches != 2 {
			t.Fatal("second read fetched remotely again")
		}
	})
}

func TestReadYourWrites(t *testing.T) {
	rig := newRig(t, 2, 32<<10, 4<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		data := []byte("hello, mirrored world")
		if _, err := im.WriteAt(ctx, data, 5000); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := im.ReadAt(ctx, got, 5000); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read-your-writes: got %q, want %q", got, data)
		}
		// The write itself was local; the read-back fell inside the
		// written extent of chunk 1, but the chunk was not fully
		// mirrored, so strategy 1 fetched that one whole chunk.
		if im.Stats().RemoteChunkFetches != 1 {
			t.Fatalf("fetches = %d, want 1 (whole chunk 1)", im.Stats().RemoteChunkFetches)
		}
	})
}

func TestWritesAreLocalUntilCommit(t *testing.T) {
	rig := newRig(t, 2, 32<<10, 4<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		before := rig.sys.Providers.ChunkCount()
		if _, err := im.WriteAt(ctx, make([]byte, 8<<10), 0); err != nil {
			t.Fatal(err)
		}
		if rig.sys.Providers.ChunkCount() != before {
			t.Fatal("write pushed chunks to the repository before COMMIT")
		}
		if !im.Dirty() {
			t.Fatal("image not dirty after write")
		}
	})
}

func TestGapFillKeepsOneRegionPerChunk(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		// Two scattered writes in chunk 0 with a gap between them.
		if _, err := im.WriteAt(ctx, []byte{1, 2, 3}, 100); err != nil {
			t.Fatal(err)
		}
		if im.Stats().GapFills != 0 {
			t.Fatal("first write triggered a gap fill")
		}
		if _, err := im.WriteAt(ctx, []byte{4, 5, 6}, 4000); err != nil {
			t.Fatal(err)
		}
		st := im.Stats()
		if st.GapFills != 1 {
			t.Fatalf("gap fills = %d, want 1", st.GapFills)
		}
		if st.RemoteChunkFetches != 1 {
			t.Fatalf("fetches = %d, want 1 (the gap fill)", st.RemoteChunkFetches)
		}
		// The chunk must now be fully mirrored, with base content in the
		// gap and both writes intact.
		got := make([]byte, 8<<10)
		if _, err := im.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if im.Stats().RemoteChunkFetches != 1 {
			t.Fatal("read after gap fill fetched again")
		}
		want := append([]byte(nil), rig.base[:8<<10]...)
		copy(want[100:], []byte{1, 2, 3})
		copy(want[4000:], []byte{4, 5, 6})
		if !bytes.Equal(got, want) {
			t.Fatal("gap fill corrupted chunk content")
		}
	})
}

func TestAdjacentWritesExtendRegionWithoutFill(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		for i := 0; i < 8; i++ {
			if _, err := im.WriteAt(ctx, bytes.Repeat([]byte{byte(i)}, 512), int64(i)*512); err != nil {
				t.Fatal(err)
			}
		}
		st := im.Stats()
		if st.GapFills != 0 || st.RemoteChunkFetches != 0 {
			t.Fatalf("sequential writes caused %d gap fills, %d fetches; want 0", st.GapFills, st.RemoteChunkFetches)
		}
	})
}

func TestCommitPublishesStandaloneSnapshot(t *testing.T) {
	rig := newRig(t, 3, 64<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		patch := bytes.Repeat([]byte{0xAB}, 5000)
		if _, err := im.WriteAt(ctx, patch, 10000); err != nil {
			t.Fatal(err)
		}
		v2, err := im.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v2 != rig.imageV+1 {
			t.Fatalf("commit produced version %d, want %d", v2, rig.imageV+1)
		}
		if im.Dirty() {
			t.Fatal("image still dirty after commit")
		}
		// The snapshot must read as a standalone image from anywhere.
		c := blob.NewClient(rig.sys)
		got := make([]byte, 64<<10)
		if err := c.ReadAt(ctx, rig.imageID, v2, got, 0); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), rig.base...)
		copy(want[10000:], patch)
		if !bytes.Equal(got, want) {
			t.Fatal("snapshot contents wrong")
		}
		// And the original version is untouched.
		if err := c.ReadAt(ctx, rig.imageID, rig.imageV, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rig.base) {
			t.Fatal("original version modified by commit")
		}
	})
}

func TestCommitOnlyShipsDirtyChunks(t *testing.T) {
	rig := newRig(t, 2, 256<<10, 8<<10) // 32 chunks
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		// Dirty exactly 3 chunks.
		for _, ci := range []int64{2, 7, 30} {
			if _, err := im.WriteAt(ctx, []byte{1}, ci*8<<10+17); err != nil {
				t.Fatal(err)
			}
		}
		before := rig.sys.Providers.ChunkCount()
		if _, err := im.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if got := rig.sys.Providers.ChunkCount() - before; got != 3 {
			t.Fatalf("commit stored %d chunks, want 3 (incremental diff only)", got)
		}
		if im.Stats().CommittedChunks != 3 {
			t.Fatalf("CommittedChunks = %d, want 3", im.Stats().CommittedChunks)
		}
	})
}

func TestCommitWithoutChangesIsNoOp(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		v, err := im.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v != rig.imageV {
			t.Fatalf("no-op commit produced version %d, want %d", v, rig.imageV)
		}
	})
}

func TestCloneThenCommitLeavesOriginalLineageUntouched(t *testing.T) {
	rig := newRig(t, 3, 64<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		if _, err := im.WriteAt(ctx, []byte("diverged"), 100); err != nil {
			t.Fatal(err)
		}
		origBlob := im.BlobID()
		if err := im.Clone(ctx); err != nil {
			t.Fatal(err)
		}
		if im.BlobID() == origBlob {
			t.Fatal("clone did not change backing blob")
		}
		if im.Version() != 1 {
			t.Fatalf("clone version = %d, want 1", im.Version())
		}
		v2, err := im.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Original blob still has exactly the upload version.
		if n := rig.sys.VM.Published(origBlob); n != 1 {
			t.Fatalf("original blob has %d versions, want 1", n)
		}
		// Clone's snapshot contains the divergence on the base content.
		c := blob.NewClient(rig.sys)
		got := make([]byte, 64<<10)
		if err := c.ReadAt(ctx, im.BlobID(), v2, got, 0); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), rig.base...)
		copy(want[100:], []byte("diverged"))
		if !bytes.Equal(got, want) {
			t.Fatal("clone snapshot contents wrong")
		}
	})
}

func TestSuccessiveCommitsShareUnchangedContent(t *testing.T) {
	rig := newRig(t, 2, 128<<10, 8<<10) // 16 chunks
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		if err := im.Clone(ctx); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			before := rig.sys.Providers.ChunkCount()
			if _, err := im.WriteAt(ctx, []byte{byte(round)}, int64(round)*8<<10); err != nil {
				t.Fatal(err)
			}
			if _, err := im.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if got := rig.sys.Providers.ChunkCount() - before; got != 1 {
				t.Fatalf("round %d stored %d chunks, want 1", round, got)
			}
		}
		if got := rig.sys.VM.Published(im.BlobID()); got != 6 {
			t.Fatalf("clone has %d versions, want 6 (clone + 5 commits)", got)
		}
	})
}

func TestCloseReopenRestoresLocalState(t *testing.T) {
	rig := newRig(t, 2, 32<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		if _, err := im.WriteAt(ctx, []byte("persisted"), 1234); err != nil {
			t.Fatal(err)
		}
		fetchesBefore := im.Stats().RemoteChunkFetches
		im.Close(ctx)
		if _, err := im.ReadAt(ctx, make([]byte, 1), 0); err == nil {
			t.Fatal("read on closed image succeeded")
		}
		im2, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, true)
		if err != nil {
			t.Fatal(err)
		}
		if !im2.Dirty() {
			t.Fatal("reopened image lost dirty state")
		}
		got := make([]byte, 9)
		if _, err := im2.ReadAt(ctx, got, 1234); err != nil {
			t.Fatal(err)
		}
		if string(got) != "persisted" {
			t.Fatalf("reopened image read %q, want %q", got, "persisted")
		}
		_ = fetchesBefore
	})
}

// TestOpenImageNeverDescends: an open image fetches by the chunk map it
// resolved at Open. Reads of never-mirrored chunks after a commit, after
// a forking snapshot, and across a close and reopen pay no metadata get
// and no version-manager call. The manager's host is down, so every
// manager call fails over to its standby and counts in VM.Failovers.
func TestOpenImageNeverDescends(t *testing.T) {
	const cs = 4 << 10
	fab := cluster.NewLive(6)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3}, 4, 1)
	sys.VM.SetStandbys([]cluster.NodeID{5})
	lv := cluster.NewLiveness(6)
	sys.VM.SetLiveness(lv)
	mod := NewModule(0, blob.NewClient(sys))
	base := make([]byte, 32*cs)
	for i := range base {
		base[i] = byte(i*13 + 7)
	}
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, int64(len(base)), cs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		lv.Kill(ctx, 4)
		im, err := mod.Open(ctx, id, v, true)
		if err != nil {
			t.Fatal(err)
		}
		// quiet runs step, which ends in a read of the never-mirrored
		// chunks [ci,ci+4), and checks what the read returned and cost.
		quiet := func(what string, ci int64, step func()) {
			t.Helper()
			gets, calls := sys.Meta.Gets.Load(), sys.VM.Failovers.Load()
			step()
			got := make([]byte, 4*cs)
			if _, err := im.ReadAt(ctx, got, ci*cs); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(got, base[ci*cs:(ci+4)*cs]) {
				t.Fatalf("%s: read wrong data", what)
			}
			if g, n := sys.Meta.Gets.Load()-gets, sys.VM.Failovers.Load()-calls; g != 0 || n != 0 {
				t.Errorf("%s: %d metadata gets and %d manager calls", what, g, n)
			}
		}
		write := func(ci int64) {
			if _, err := im.WriteAt(ctx, []byte("dirty"), ci*cs+9); err != nil {
				t.Fatal(err)
			}
		}
		quiet("first read", 0, func() {})
		write(4)
		if _, err := im.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		quiet("read after commit", 8, func() {})
		write(5)
		if _, _, err := im.Snapshot(ctx, true); err != nil {
			t.Fatal(err)
		}
		quiet("read after fork", 12, func() {})
		quiet("reopen and read", 16, func() {
			cur, cv := im.BlobID(), im.Version()
			im.Close(ctx)
			if im, err = mod.Open(ctx, cur, cv, true); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestRefusedReopenKeepsLocalState: a disk closed synthetic cannot be
// reopened real, and the refusal must leave the node's persisted dirty
// map where the next synthetic open finds it.
func TestRefusedReopenKeepsLocalState(t *testing.T) {
	rig := newRig(t, 2, 32<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		mod := rig.modules[0]
		im, err := mod.Open(ctx, rig.imageID, rig.imageV, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Write(ctx, 1234, 9); err != nil {
			t.Fatal(err)
		}
		im.Close(ctx)
		if _, err := mod.Open(ctx, rig.imageID, rig.imageV, true); !errors.Is(err, ErrSynthetic) {
			t.Fatalf("real reopen of a disk closed synthetic = %v, want ErrSynthetic", err)
		}
		im2, err := mod.Open(ctx, rig.imageID, rig.imageV, false)
		if err != nil {
			t.Fatal(err)
		}
		if !im2.Dirty() {
			t.Fatal("the refused reopen threw the dirty map away")
		}
		if v, err := im2.Commit(ctx); err != nil || v == rig.imageV {
			t.Fatalf("commit after the refused reopen = (%d, %v), want a new version", v, err)
		}
	})
}

func TestOpenOnWrongNodeFails(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		// ctx runs on node 0; module 1 must refuse.
		if _, err := rig.modules[1].Open(ctx, rig.imageID, rig.imageV, true); err == nil {
			t.Fatal("open from foreign node succeeded")
		}
	})
}

func TestAccessValidation(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		if _, err := im.ReadAt(ctx, make([]byte, 10), 16<<10-5); err == nil {
			t.Error("read past end accepted")
		}
		if _, err := im.WriteAt(ctx, make([]byte, 10), -1); err == nil {
			t.Error("negative offset accepted")
		}
		if err := im.Read(ctx, 0, 0); err != nil {
			t.Errorf("zero-length read failed: %v", err)
		}
	})
}

func TestSyntheticImageRejectsDataAccess(t *testing.T) {
	rig := newRig(t, 2, 16<<10, 8<<10)
	rig.run(t, func(ctx *cluster.Ctx) {
		im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := im.ReadAt(ctx, make([]byte, 8), 0); err == nil {
			t.Error("data read on synthetic image succeeded")
		}
		if err := im.Read(ctx, 0, 4096); err != nil {
			t.Errorf("costed read failed: %v", err)
		}
		if err := im.Write(ctx, 100, 200); err != nil {
			t.Errorf("costed write failed: %v", err)
		}
		if _, err := im.Commit(ctx); err != nil {
			t.Errorf("synthetic commit failed: %v", err)
		}
	})
}

// TestMirrorMatchesFlatFile is the central property test: a random
// sequence of reads and writes against the mirrored image must behave
// exactly like the same sequence against a plain in-memory file
// initialized with the base image; and the LMM invariants must hold
// after every operation (Image.check).
func TestMirrorMatchesFlatFile(t *testing.T) {
	type op struct {
		Off, Len uint16
		Write    bool
		Seed     byte
	}
	const size, cs = 32 << 10, 4 << 10
	f := func(ops []op) bool {
		rig := newRig(t, 2, size, cs)
		ok := true
		rig.run(t, func(ctx *cluster.Ctx) {
			im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, true)
			if err != nil {
				ok = false
				return
			}
			model := append([]byte(nil), rig.base...)
			for _, o := range ops {
				off := int64(o.Off) % size
				l := int64(o.Len)%3000 + 1
				if off+l > size {
					l = size - off
				}
				if o.Write {
					data := bytes.Repeat([]byte{o.Seed | 1}, int(l))
					if _, err := im.WriteAt(ctx, data, off); err != nil {
						ok = false
						return
					}
					copy(model[off:off+l], data)
				} else {
					got := make([]byte, l)
					if _, err := im.ReadAt(ctx, got, off); err != nil {
						ok = false
						return
					}
					if !bytes.Equal(got, model[off:off+l]) {
						ok = false
						return
					}
				}
				if err := im.check(); err != nil {
					t.Log(err)
					ok = false
					return
				}
			}
			// Final: full image must equal the model.
			got := make([]byte, size)
			if _, err := im.ReadAt(ctx, got, 0); err != nil {
				ok = false
				return
			}
			if !bytes.Equal(got, model) {
				ok = false
				return
			}
			// And a commit must publish exactly the model.
			v, err := im.Commit(ctx)
			if err != nil {
				ok = false
				return
			}
			c := blob.NewClient(rig.sys)
			snap := make([]byte, size)
			if err := c.ReadAt(ctx, rig.imageID, v, snap, 0); err != nil {
				ok = false
				return
			}
			if !bytes.Equal(snap, model) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMirrorsOnDistinctNodes(t *testing.T) {
	// The multideployment pattern in miniature: every node mirrors the
	// same snapshot, writes its own data, clones and commits; each
	// snapshot must contain exactly that node's divergence.
	const nodes = 8
	rig := newRig(t, nodes, 64<<10, 8<<10)
	type result struct {
		id  blob.ID
		v   blob.Version
		tag byte
	}
	results := make([]result, nodes)
	rig.run(t, func(ctx *cluster.Ctx) {
		var tasks []cluster.Task
		for n := 0; n < nodes; n++ {
			n := n
			tasks = append(tasks, ctx.Go("vm", cluster.NodeID(n), func(cc *cluster.Ctx) {
				im, err := rig.modules[n].Open(cc, rig.imageID, rig.imageV, true)
				if err != nil {
					t.Errorf("node %d open: %v", n, err)
					return
				}
				tag := byte(n + 1)
				if _, err := im.WriteAt(cc, bytes.Repeat([]byte{tag}, 1000), int64(n)*1000); err != nil {
					t.Errorf("node %d write: %v", n, err)
					return
				}
				if err := im.Clone(cc); err != nil {
					t.Errorf("node %d clone: %v", n, err)
					return
				}
				v, err := im.Commit(cc)
				if err != nil {
					t.Errorf("node %d commit: %v", n, err)
					return
				}
				results[n] = result{im.BlobID(), v, tag}
			}))
		}
		ctx.WaitAll(tasks)
		c := blob.NewClient(rig.sys)
		for n, r := range results {
			got := make([]byte, 64<<10)
			if err := c.ReadAt(ctx, r.id, r.v, got, 0); err != nil {
				t.Fatalf("node %d snapshot read: %v", n, err)
			}
			want := append([]byte(nil), rig.base...)
			copy(want[n*1000:], bytes.Repeat([]byte{r.tag}, 1000))
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d snapshot contents wrong", n)
			}
		}
	})
}
