package blobvfs_test

import (
	"bytes"
	"sync"
	"testing"

	"blobvfs"
	"blobvfs/internal/blob"
)

const (
	syncChunk = 4 << 10
	syncSize  = 64 << 10 // 16 chunks
)

// twoRepos deploys an upstream and a downstream repository on one
// fabric, with fixed sync identities.
func twoRepos(t *testing.T, opts ...blobvfs.Option) (*blobvfs.LiveCluster, *blobvfs.Repo, *blobvfs.Repo) {
	t.Helper()
	fab := blobvfs.NewLiveCluster(4)
	common := append([]blobvfs.Option{
		blobvfs.WithChunkSize(syncChunk),
	}, opts...)
	up, err := blobvfs.Open(fab, append(common, blobvfs.WithSyncUUID(0xA))...)
	if err != nil {
		t.Fatal(err)
	}
	down, err := blobvfs.Open(fab, append(common, blobvfs.WithSyncUUID(0xB))...)
	if err != nil {
		t.Fatal(err)
	}
	if up.SyncUUID() != 0xA || down.SyncUUID() != 0xB {
		t.Fatalf("SyncUUID: got %#x/%#x, want 0xa/0xb", up.SyncUUID(), down.SyncUUID())
	}
	return fab, up, down
}

// buildLineage creates a 5-version lineage on the upstream repo: v1
// is the full image, v2..v5 each rewrite a few chunks in place
// (Commit without fork, so the lineage grows). Two of the rewrites
// carry identical content, stored under two keys like any other.
// It returns the image and the expected full contents per version.
func buildLineage(t *testing.T, ctx *blobvfs.Ctx, up *blobvfs.Repo) (blobvfs.ImageID, map[blobvfs.Version][]byte) {
	t.Helper()
	base := img(syncSize, 1)
	ref, err := up.Create(ctx, "", base)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := up.OpenDisk(ctx, ctx.Node(), ref)
	if err != nil {
		t.Fatal(err)
	}
	want := map[blobvfs.Version][]byte{1: append([]byte(nil), base...)}
	cur := append([]byte(nil), base...)
	patches := []struct {
		off  int64
		data []byte
	}{
		{0, img(syncChunk, 50)},               // v2: rewrite chunk 0
		{3 * syncChunk, img(2*syncChunk, 60)}, // v3: rewrite chunks 3-4
		{8 * syncChunk, img(syncChunk, 50)},   // v4: same content as v2's chunk
		{15 * syncChunk, img(syncChunk, 70)},  // v5: rewrite the last chunk
	}
	for i, p := range patches {
		if _, err := disk.WriteAt(ctx, p.data, p.off); err != nil {
			t.Fatal(err)
		}
		snap, err := disk.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != blobvfs.Version(i+2) {
			t.Fatalf("commit %d published v%d", i, snap.Version)
		}
		copy(cur[p.off:], p.data)
		want[snap.Version] = append([]byte(nil), cur...)
	}
	if err := disk.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return ref.Image, want
}

// leafKeys flattens a version's chunk map on a repo.
func leafKeys(t *testing.T, ctx *blobvfs.Ctx, r *blobvfs.Repo, id blobvfs.ImageID, v blobvfs.Version) []blob.ChunkKey {
	t.Helper()
	sys := r.System()
	info, err := sys.VM.Info(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	root, err := sys.VM.Root(ctx, id, v)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := blob.CollectLeaves(sys.Meta.Getter(ctx), root, info.Span, 0, info.Span)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]blob.ChunkKey, len(leaves))
	for i, l := range leaves {
		keys[i] = l.Chunk
	}
	return keys
}

// storedKeys returns a repo's stored chunk key set.
func storedKeys(r *blobvfs.Repo) map[blob.ChunkKey]bool {
	ps := r.System().Providers
	wm, _ := ps.PendingSnapshot()
	set := make(map[blob.ChunkKey]bool)
	for _, k := range ps.RetainedKeys(wm) {
		set[k] = true
	}
	return set
}

// TestExportImportRoundTrip is the round-trip property test: a
// 5-version lineage (one version retired upstream mid-lineage) ships
// as a full archive plus a delta; every imported version must read
// byte-identical downstream, and every chunk the newest version maps
// must be stored on both sides.
func TestExportImportRoundTrip(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		id, want := buildLineage(t, ctx, up)

		// Retire v4 upstream before the export: it must ship as a
		// placeholder and come out retired downstream too.
		if err := up.Retire(ctx, blobvfs.Snapshot{Image: id, Version: 4}); err != nil {
			t.Fatal(err)
		}

		var full bytes.Buffer
		est, err := up.Export(ctx, &full, id, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if est.Seq != 1 || est.Versions != 2 || est.Retired != 0 {
			t.Fatalf("full export stats %+v", est)
		}
		ist, err := down.Import(ctx, &full)
		if err != nil {
			t.Fatal(err)
		}
		localID := ist.Image
		if ist.Versions != 2 || ist.Chunks != est.Chunks {
			t.Fatalf("full import stats %+v", ist)
		}

		var delta bytes.Buffer
		est2, err := up.Export(ctx, &delta, id, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if est2.Seq != 2 || est2.Versions != 2 || est2.Retired != 1 {
			t.Fatalf("delta export stats %+v", est2)
		}
		// The delta rewrote 4 chunks across v3..v5 (v4 is retired but
		// its surviving chunks ride with v5's tree); far fewer than
		// the 16 a full ship would carry.
		if est2.Chunks >= est.Chunks/2 {
			t.Fatalf("delta shipped %d chunks, full %d", est2.Chunks, est.Chunks)
		}
		ist2, err := down.Import(ctx, &delta)
		if err != nil {
			t.Fatal(err)
		}
		if ist2.Image != localID || ist2.Retired != 1 {
			t.Fatalf("delta import stats %+v", ist2)
		}

		// Byte-identical reads for every live version, both via the
		// whole-image download and via a mounted disk.
		vsUp, err := up.Versions(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		vsDown, err := down.Versions(ctx, localID)
		if err != nil {
			t.Fatal(err)
		}
		if len(vsUp) != 4 || len(vsDown) != len(vsUp) {
			t.Fatalf("live versions up %v down %v", vsUp, vsDown)
		}
		for i := range vsUp {
			if vsUp[i] != vsDown[i] {
				t.Fatalf("version sets diverge: up %v down %v", vsUp, vsDown)
			}
			v := vsDown[i]
			buf := make([]byte, syncSize)
			if err := down.Download(ctx, blobvfs.Snapshot{Image: localID, Version: v}, buf); err != nil {
				t.Fatalf("download v%d: %v", v, err)
			}
			if !bytes.Equal(buf, want[v]) {
				t.Fatalf("v%d differs after import", v)
			}
		}
		disk, err := down.OpenDisk(ctx, ctx.Node(), blobvfs.Snapshot{Image: localID, Version: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, syncSize)
		if _, err := disk.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[5]) {
			t.Fatal("disk ReadAt differs from upstream contents")
		}
		if err := disk.Close(ctx); err != nil {
			t.Fatal(err)
		}

		// Stored-key parity for the newest version's chunk map: a chunk
		// stored upstream is stored downstream under its remapped key.
		storedU, storedD := storedKeys(up), storedKeys(down)
		ku := leafKeys(t, ctx, up, id, 5)
		kd := leafKeys(t, ctx, down, localID, 5)
		if len(ku) != len(kd) {
			t.Fatalf("chunk maps differ in length: %d vs %d", len(ku), len(kd))
		}
		for i := range ku {
			if (ku[i] == 0) != (kd[i] == 0) {
				t.Fatalf("sparseness differs at index %d", i)
			}
			if ku[i] == 0 {
				continue
			}
			if !storedU[ku[i]] || !storedD[kd[i]] {
				t.Fatalf("chunk at index %d: stored up %v down %v", i, storedU[ku[i]], storedD[kd[i]])
			}
		}

		// The retired-then-imported edge: v4 is unreadable on both
		// sides, and downstream GC can run over the imported lineage.
		for _, r := range []*blobvfs.Repo{up, down} {
			rid := id
			if r == down {
				rid = localID
			}
			if _, err := r.System().VM.Root(ctx, rid, 4); err == nil {
				t.Fatal("retired v4 still resolvable")
			}
		}
		if _, err := down.GC(ctx); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: localID, Version: 5}, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[5]) {
			t.Fatal("v5 differs after downstream GC")
		}
	})
}

// TestExportCloneSharedLineage covers the cross-lineage sharing edge:
// a clone's tree shares every node below its root with the source
// image, so a full export of the clone lineage must ship the shared
// subtrees and the importer must accept leaf chunks it has never seen
// under that image.
func TestExportCloneSharedLineage(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		base := img(syncSize, 9)
		ref, err := up.Create(ctx, "", base)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := up.Clone(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := up.Export(ctx, &buf, clone.Image, 0, 1); err != nil {
			t.Fatal(err)
		}
		ist, err := down.Import(ctx, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 1}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("imported clone differs from source image")
		}
	})
}

// gateWriter runs fire exactly once, on the first Write — mid-export,
// after the header hits the stream but before the chunk payloads are
// fetched.
type gateWriter struct {
	bytes.Buffer
	once sync.Once
	fire func()
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(w.fire)
	return w.Buffer.Write(p)
}

// TestExportPinsAgainstConcurrentGC is the regression test for the
// export pinning: retirement plus a GC cycle racing a slow export
// must not reclaim chunks the archive still needs.
func TestExportPinsAgainstConcurrentGC(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		id, want := buildLineage(t, ctx, up)

		// Seed the downstream at v2.
		var seed bytes.Buffer
		if _, err := up.Export(ctx, &seed, id, 0, 2); err != nil {
			t.Fatal(err)
		}
		ist, err := down.Import(ctx, &seed)
		if err != nil {
			t.Fatal(err)
		}

		// Export (2,5] through a writer that, mid-stream, retires
		// everything below v5 and runs a GC cycle. The export holds
		// pins on v2..v5, so only v1 — which the archive does not
		// need — may actually retire.
		w := &gateWriter{fire: func() {
			n, err := up.RetireUpTo(ctx, id, 4)
			if err != nil {
				t.Errorf("mid-export retire: %v", err)
			}
			if n != 1 {
				t.Errorf("mid-export retire reclaimed %d versions, want 1 (just the unpinned v1)", n)
			}
			if _, err := up.GC(ctx); err != nil {
				t.Errorf("mid-export GC: %v", err)
			}
		}}
		if _, err := up.Export(ctx, w, id, 2, 5); err != nil {
			t.Fatal(err)
		}

		// The archive must be whole: the downstream import succeeds
		// and serves v5 byte-identical.
		ist2, err := down.Import(ctx, bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if ist2.Image != ist.Image {
			t.Fatalf("delta landed on image %d, want %d", ist2.Image, ist.Image)
		}
		got := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 5}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[5]) {
			t.Fatal("v5 differs after GC-racing export")
		}

		// Once the export's pins are gone, the same retirement works.
		if n, err := up.RetireUpTo(ctx, id, 4); err != nil || n != 3 {
			t.Fatalf("post-export retire: n=%d err=%v, want v2..v4 retired", n, err)
		}
		if _, err := up.GC(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAlignedKeysAreNeverStored covers the holes block-aligned key
// allocation leaves in the key space of a pool wider than one stripe
// window (blob.ProviderSet.AllocPending): a skipped key is neither
// pending nor retained, so the collector has nothing to say about it; a
// collection racing aligned commits frees nothing; and a lineage whose
// keys have holes exports and imports like any other, the import
// aligning its own batches.
func TestAlignedKeysAreNeverStored(t *testing.T) {
	const (
		providers = 20 // one stripe window is 16
		chunks    = 40
		diff      = 30 // chunks a commit rewrites: two never fit one 64-key block
	)
	fab := blobvfs.NewLiveCluster(providers)
	open := func(uuid uint64) *blobvfs.Repo {
		r, err := blobvfs.Open(fab, blobvfs.WithChunkSize(syncChunk), blobvfs.WithSyncUUID(uuid))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	up, down := open(0xA), open(0xB)

	// commitRounds rewrites diff chunks of the disk three times over,
	// committing each, and returns the contents per version published.
	commitRounds := func(ctx *blobvfs.Ctx, r *blobvfs.Repo, disk *blobvfs.Disk, cur []byte, seed byte, fork bool) (blobvfs.Snapshot, map[blobvfs.Version][]byte) {
		want := make(map[blobvfs.Version][]byte)
		var snap blobvfs.Snapshot
		for round := 0; round < 3; round++ {
			patch, off := img(diff*syncChunk, seed+byte(round)), int64(round*5*syncChunk)
			if _, err := disk.WriteAt(ctx, patch, off); err != nil {
				t.Error(err)
			}
			var err error
			if snap, err = r.Snapshot(ctx, disk, fork && round == 0); err != nil {
				t.Error(err)
			}
			copy(cur[off:], patch)
			want[snap.Version] = append([]byte(nil), cur...)
		}
		return snap, want
	}
	// stored checks a quiescent repository: nothing pending, and the
	// retained keys are exactly the keys the given versions reference.
	// It returns how many keys up to the watermark were never stored.
	stored := func(ctx *blobvfs.Ctx, r *blobvfs.Repo, id blobvfs.ImageID, versions map[blobvfs.Version][]byte) int {
		ps := r.System().Providers
		wm, pending := ps.PendingSnapshot()
		if len(pending) != 0 {
			t.Fatalf("%d keys pending on a quiescent repository", len(pending))
		}
		referenced := make(map[blob.ChunkKey]bool)
		for v := range versions {
			for _, k := range leafKeys(t, ctx, r, id, v) {
				if k != 0 { // beyond the image's end the tree is sparse
					referenced[k] = true
				}
			}
		}
		retained := ps.RetainedKeys(wm)
		if len(retained) != len(referenced) {
			t.Fatalf("%d keys retained, %d referenced", len(retained), len(referenced))
		}
		for _, k := range retained {
			if !referenced[k] {
				t.Fatalf("key %d retained but referenced by no version", k)
			}
		}
		return int(wm) - len(retained)
	}

	fab.Run(func(ctx *blobvfs.Ctx) {
		base := img(chunks*syncChunk, 1)
		ref, err := up.Create(ctx, "", base)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := up.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		_, want := commitRounds(ctx, up, disk, append([]byte(nil), base...), 10, false)
		want[1] = base
		if err := disk.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if holes := stored(ctx, up, ref.Image, want); holes == 0 {
			t.Fatal("no key was skipped: the commits were not block-aligned")
		}

		// Writers fork the image and commit on while a collector runs
		// cycle after cycle: nothing is retired, so a cycle that frees
		// anything has freed a key in flight.
		var wg sync.WaitGroup
		done := make(chan struct{})
		forks := make([]blobvfs.Snapshot, 3)
		forkWant := make([][]byte, len(forks))
		for w := range forks {
			wg.Add(1)
			ctx.Go("writer", blobvfs.NodeID(1+w), func(cc *blobvfs.Ctx) {
				defer wg.Done()
				d, err := up.OpenDisk(cc, cc.Node(), ref)
				if err != nil {
					t.Error(err)
					return
				}
				snap, got := commitRounds(cc, up, d, append([]byte(nil), base...), byte(40+10*w), true)
				forks[w], forkWant[w] = snap, got[snap.Version]
				if err := d.Close(cc); err != nil {
					t.Error(err)
				}
			})
		}
		collector := ctx.Go("gc", 0, func(cc *blobvfs.Ctx) {
			for {
				select {
				case <-done:
					return
				default:
				}
				rep, err := up.GC(cc)
				if err != nil || rep.FreedChunks != 0 || rep.FreedNodes != 0 {
					t.Errorf("collection beside aligned commits: %+v, %v", rep, err)
					return
				}
			}
		})
		wg.Wait()
		close(done)
		ctx.Wait(collector)
		buf := make([]byte, len(base))
		for w, snap := range forks {
			if err := up.Download(ctx, snap, buf); err != nil || !bytes.Equal(buf, forkWant[w]) {
				t.Fatalf("fork %d differs after the collections: %v", w, err)
			}
		}

		// The holed lineage ships as a full archive and a delta; the
		// delta's 60 chunks are a batch the importer aligns.
		var localID blobvfs.ImageID
		for _, r := range [][2]blobvfs.Version{{0, 2}, {2, 4}} {
			var ar bytes.Buffer
			if _, err := up.Export(ctx, &ar, ref.Image, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
			ist, err := down.Import(ctx, &ar)
			if err != nil {
				t.Fatal(err)
			}
			localID = ist.Image
		}
		for v, data := range want {
			if err := down.Download(ctx, blobvfs.Snapshot{Image: localID, Version: v}, buf); err != nil || !bytes.Equal(buf, data) {
				t.Fatalf("v%d differs after import: %v", v, err)
			}
		}
		if holes := stored(ctx, down, localID, want); holes == 0 {
			t.Fatal("no key was skipped downstream: the import was not block-aligned")
		}
	})
}
