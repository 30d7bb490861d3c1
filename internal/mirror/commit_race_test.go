package mirror

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/p2p"
)

// simRig is the deterministic twin of testRig: storage + modules on the
// simulated fabric, so concurrent activities interleave at virtual-time
// yield points in a reproducible order.
type simRig struct {
	fab     *cluster.Sim
	sys     *blob.System
	modules []*Module
	imageID blob.ID
	imageV  blob.Version
	base    []byte
}

func newSimRig(t *testing.T, nodes int, size int64, chunkSize int) *simRig {
	t.Helper()
	fab := cluster.NewSim(cluster.DefaultConfig(nodes))
	provs := make([]cluster.NodeID, nodes)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := blob.NewSystem(provs, 0, 1)
	rig := &simRig{fab: fab, sys: sys}
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

// TestCommitDoesNotLoseConcurrentWrites is the regression test for the
// commit-path lost update: a WriteAt landing between Commit's payload
// capture and its publish completion used to be wiped from the dirty
// map (Commit unconditionally emptied the dirty range), so the write was
// never published by any later commit — the local mirror silently
// diverged from every snapshot. The interleaving is deterministic: the
// commit captures its payloads synchronously before its first fabric
// yield, the publish of a 256 KB chunk takes milliseconds of virtual
// time, and the writer wakes after microseconds — inside the window.
func TestCommitDoesNotLoseConcurrentWrites(t *testing.T) {
	const chunk = 256 << 10
	rig := newSimRig(t, 2, 2*chunk, chunk)
	overwrite := bytes.Repeat([]byte{0xAA}, chunk)
	late := bytes.Repeat([]byte{0xBB}, 50)
	var v2, v3 blob.Version
	rig.fab.Run(func(ctx *cluster.Ctx) {
		im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, true)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Dirty chunk 0 completely so the commit needs no gap fill and
		// captures its payload before the first yield.
		if _, err := im.WriteAt(ctx, overwrite, 0); err != nil {
			t.Fatal(err)
		}
		var commitErr, writeErr error
		commit := ctx.Go("commit", 0, func(cc *cluster.Ctx) {
			v2, commitErr = im.Commit(cc)
		})
		writer := ctx.Go("writer", 0, func(cc *cluster.Ctx) {
			// Wake inside the publish window: after capture (virtual
			// time zero), well before the 256 KB publish completes.
			cc.Sleep(1e-4)
			_, writeErr = im.WriteAt(cc, late, 100)
		})
		ctx.WaitAll([]cluster.Task{commit, writer})
		if commitErr != nil {
			t.Fatalf("commit: %v", commitErr)
		}
		if writeErr != nil {
			t.Fatalf("concurrent write: %v", writeErr)
		}
		if v2 <= rig.imageV {
			t.Fatalf("commit did not advance the version: %d", v2)
		}
		// The published snapshot carries the captured payload, not the
		// late write.
		reader := blob.NewClient(rig.sys)
		got := make([]byte, 50)
		if err := reader.ReadAt(ctx, rig.imageID, v2, got, 100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, overwrite[100:150]) {
			t.Fatalf("published snapshot has the late write (or wrong data): %x", got[:4])
		}
		// The late write must still be pending: this is the lost update.
		if !im.Dirty() {
			t.Fatal("late write wiped from the dirty map by the commit (lost update)")
		}
		v3, err = im.Commit(ctx)
		if err != nil {
			t.Fatalf("second commit: %v", err)
		}
		if v3 <= v2 {
			t.Fatalf("second commit published nothing (v=%d): late write lost", v3)
		}
		if err := reader.ReadAt(ctx, rig.imageID, v3, got, 100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, late) {
			t.Fatalf("late write not in the follow-up snapshot: %x", got[:4])
		}
	})
}

// TestCommitRemarksOnlyBytesWrittenDuringPublish pins the precision of
// the fix: completion re-marks exactly the bytes written inside the
// publish window, not the whole originally dirty range.
func TestCommitRemarksOnlyBytesWrittenDuringPublish(t *testing.T) {
	const chunk = 256 << 10
	rig := newSimRig(t, 2, 2*chunk, chunk)
	rig.fab.Run(func(ctx *cluster.Ctx) {
		im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, true)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := im.WriteAt(ctx, bytes.Repeat([]byte{1}, chunk), 0); err != nil {
			t.Fatal(err)
		}
		commit := ctx.Go("commit", 0, func(cc *cluster.Ctx) {
			if _, err := im.Commit(cc); err != nil {
				t.Errorf("commit: %v", err)
			}
		})
		writer := ctx.Go("writer", 0, func(cc *cluster.Ctx) {
			cc.Sleep(1e-4)
			if _, err := im.WriteAt(cc, []byte{2, 2, 2, 2}, 4096); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		ctx.WaitAll([]cluster.Task{commit, writer})
		im.mu.Lock()
		st := im.stateLocked(0)
		im.mu.Unlock()
		if want := (span{4096, 4100}); st.Dirty != want {
			t.Fatalf("dirty range after commit = %v, want %v (only the in-window write)", st.Dirty, want)
		}
		if err := im.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommitHolderRule pins the commit rows of the sharing holder rule
// (Image.heldLocked): a clean commit leaves the node holding the
// committed key, and a later write withdraws it once; a write inside
// the publish window withdraws the committed key at commit, and a later
// write withdraws nothing more.
func TestCommitHolderRule(t *testing.T) {
	const chunk = 256 << 10
	for _, tc := range []struct {
		name     string
		inWindow bool
		held     bool  // a sibling locates the committed key at node 0
		atCommit int64 // Retracted once the commit returned
	}{
		{name: "clean commit", held: true},
		{name: "write in publish window", inWindow: true, atCommit: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newSimRig(t, 3, 2*chunk, chunk)
			reg := p2p.NewRegistry(2, p2p.DefaultConfig())
			rig.fab.Run(func(ctx *cluster.Ctx) {
				co := reg.Register(ctx, rig.imageID, []cluster.NodeID{0, 1})
				rig.modules[0].SetSharer(co)
				im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if err := im.Write(ctx, 0, chunk); err != nil { // chunk 0 whole and dirty
					t.Fatal(err)
				}
				tasks := []cluster.Task{ctx.Go("commit", 0, func(cc *cluster.Ctx) {
					if _, err := im.Commit(cc); err != nil {
						t.Errorf("commit: %v", err)
					}
				})}
				if tc.inWindow {
					tasks = append(tasks, ctx.Go("writer", 0, func(cc *cluster.Ctx) {
						cc.Sleep(1e-4)
						if err := im.Write(cc, 4096, 4); err != nil {
							t.Errorf("write: %v", err)
						}
					}))
				}
				ctx.WaitAll(tasks)
				if st := co.Stats(); st.Announced != 1 || st.Retracted != tc.atCommit {
					t.Fatalf("after commit: announced %d, retracted %d; want 1 and %d", st.Announced, st.Retracted, tc.atCommit)
				}
				im.mu.Lock()
				key := im.keyLocked(0)
				im.mu.Unlock()
				ctx.Wait(ctx.Go("sibling", 1, func(cc *cluster.Ctx) {
					if peer, _, ok := co.Locate(cc, key); ok != tc.held || (ok && peer != 0) {
						t.Errorf("sibling locates committed key %d at %d (ok %v), want held by node 0: %v", key, peer, ok, tc.held)
					}
				}))
				if err := im.Write(ctx, 8192, 4); err != nil {
					t.Fatal(err)
				}
				if st := co.Stats(); st.Retracted != 1 {
					t.Fatalf("after a later write: retracted %d, want 1", st.Retracted)
				}
			})
		})
	}
}

// TestCloneCleansUpOnPinFailure: a Clone whose pin of the fresh clone
// fails must retire the clone it just published — otherwise the image
// keeps pointing at the base while a zombie blob survives retention and
// GC forever.
// TestCommitLeavesTheSharedMap: two images that open one snapshot
// together hold its one chunk map. One writes chunk 0 whole, commits,
// closes and reopens its new version: the sibling still fetches the
// chunk's base key, and the committer fetches by the key it committed.
func TestCommitLeavesTheSharedMap(t *testing.T) {
	const chunk = 1 << 16
	rig := newSimRig(t, 2, 4*chunk, chunk)
	rig.fab.Run(func(ctx *cluster.Ctx) {
		ims := make([]*Image, 2)
		var tasks []cluster.Task
		for i := range ims {
			tasks = append(tasks, ctx.Go("open", cluster.NodeID(i), func(cc *cluster.Ctx) {
				var err error
				if ims[i], err = rig.modules[i].Open(cc, rig.imageID, rig.imageV, true); err != nil {
					t.Error(err)
				}
			}))
		}
		ctx.WaitAll(tasks)
		if t.Failed() {
			return
		}
		sib := ims[1]
		if &ims[0].leaves[0] != &sib.leaves[0] {
			t.Error("images opened together hold maps of their own, want one shared map")
			return
		}
		ctx.Wait(ctx.Go("committer", 0, func(cc *cluster.Ctx) {
			im := ims[0]
			if _, err := im.WriteAt(cc, bytes.Repeat([]byte{0xab}, chunk), 0); err != nil {
				t.Error(err)
				return
			}
			v, err := im.Commit(cc)
			if err == nil {
				im.Close(cc)
				im, err = rig.modules[0].Open(cc, rig.imageID, v, true)
			}
			var published []blob.LeafEntry
			if err == nil {
				published, err = blob.NewClient(rig.sys).ChunkMap(cc, rig.imageID, v)
			}
			if err != nil {
				t.Error(err)
				return
			}
			im.mu.Lock()
			key := im.keyLocked(0)
			im.mu.Unlock()
			if base := sib.leaves[0].Chunk; key != published[0].Chunk || key == base {
				t.Errorf("the reopened committer fetches chunk 0 by key %d, want the committed %d (base %d)", key, published[0].Chunk, base)
			}
		}))
		ctx.Wait(ctx.Go("sibling", 1, func(cc *cluster.Ctx) {
			got := make([]byte, chunk)
			if _, err := sib.ReadAt(cc, got, 0); err != nil {
				t.Error(err)
			} else if !bytes.Equal(got, rig.base[:chunk]) {
				t.Error("the sibling fetched a key other than the snapshot's it opened")
			}
		}))
	})
}

// TestCommittedKeysAreThePublishedMap: after each of several commits
// over overlapping chunk sets, the image's key for every chunk is the
// one in the published version's own chunk map, and the image keeps
// one entry per chunk it ever committed.
func TestCommittedKeysAreThePublishedMap(t *testing.T) {
	const chunk = 1 << 16
	rig := newSimRig(t, 2, 8*chunk, chunk)
	rig.fab.Run(func(ctx *cluster.Ctx) {
		im, err := rig.modules[0].Open(ctx, rig.imageID, rig.imageV, false)
		if err != nil {
			t.Error(err)
			return
		}
		ever := map[int64]bool{}
		for _, dirty := range [][]int64{{0, 2}, {1, 2, 5}, {7}, {0, 3, 7}} {
			for _, ci := range dirty {
				ever[ci] = true
				if err := im.Write(ctx, ci*chunk+10, 100); err != nil {
					t.Error(err)
					return
				}
			}
			v, err := im.Commit(ctx)
			var published []blob.LeafEntry
			if err == nil {
				published, err = blob.NewClient(rig.sys).ChunkMap(ctx, rig.imageID, v)
			}
			if err != nil {
				t.Error(err)
				return
			}
			im.mu.Lock()
			for _, lf := range published {
				if key := im.keyLocked(lf.Index); key != lf.Chunk {
					t.Errorf("after committing %v: chunk %d has key %d, version %d has %d", dirty, lf.Index, key, v, lf.Chunk)
				}
			}
			if len(im.committed) != len(ever) {
				t.Errorf("after committing %v: %d committed entries, want %d", dirty, len(im.committed), len(ever))
			}
			im.mu.Unlock()
		}
	})
}

func TestCloneCleansUpOnPinFailure(t *testing.T) {
	rig := newRig(t, 2, 32<<10, 4<<10)
	boom := errors.New("forced pin failure")
	var cloneID blob.ID
	rig.modules[0].pinHook = func(id blob.ID, v blob.Version) error {
		if id != rig.imageID {
			cloneID = id
			return boom
		}
		return nil
	}
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		err := im.Clone(ctx)
		if !errors.Is(err, boom) {
			t.Fatalf("clone error = %v, want forced pin failure", err)
		}
		if cloneID == 0 {
			t.Fatal("pin hook never saw the clone")
		}
		if got := im.BlobID(); got != rig.imageID {
			t.Fatalf("image redirected to %d despite failed pin", got)
		}
		if vs, err := rig.sys.VM.LiveVersions(ctx, cloneID); err != nil || len(vs) != 0 {
			t.Fatalf("clone blob %d has live versions %v (%v) after failed pin: leaked", cloneID, vs, err)
		}
		// The image still works against the base lineage.
		buf := make([]byte, 16)
		if _, err := im.ReadAt(ctx, buf, 0); err != nil {
			t.Fatalf("read after failed clone: %v", err)
		}
		if !bytes.Equal(buf, rig.base[:16]) {
			t.Fatal("read wrong data after failed clone")
		}
	})
}

// TestCommitSurvivesProviderDeathMidCommit: on a replicated rig, a
// provider dying between a commit's local prepare and its publish must
// not fail the commit — the chunk and metadata puts write around the
// dead node. A commit attempted with every provider down DOES fail,
// with the dirty map intact, so the same data commits cleanly once
// providers return.
func TestCommitSurvivesProviderDeathMidCommit(t *testing.T) {
	const chunk = 4 << 10
	const nodes = 4
	fab := cluster.NewSim(cluster.DefaultConfig(nodes))
	provs := make([]cluster.NodeID, nodes)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := blob.NewSystem(provs, 0, 2)
	sys.Meta.SetReplication(2)
	lv := cluster.NewLiveness(nodes)
	sys.Meta.SetLiveness(lv)
	lv.OnChange(sys.Meta.NodeChanged)
	sys.Providers.SetLiveness(lv)
	lv.OnChange(sys.Providers.NodeChanged)
	mod := NewModule(0, blob.NewClient(sys))

	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, 2*chunk, chunk)
		if err != nil {
			t.Fatal(err)
		}
		base := bytes.Repeat([]byte{0x11}, 2*chunk)
		v1, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		im, err := mod.Open(ctx, id, v1, true)
		if err != nil {
			t.Fatal(err)
		}

		// A kill lands between prepare and publish: the commit must
		// still go through, writing around the dead provider.
		first := bytes.Repeat([]byte{0x22}, chunk)
		if _, err := im.WriteAt(ctx, first, 0); err != nil {
			t.Fatal(err)
		}
		plan, err := im.prepareCommit(ctx)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		lv.Kill(ctx, 1)
		v2, err := im.publishCommit(ctx, plan)
		if err != nil {
			t.Fatalf("publish with a dead provider: %v", err)
		}
		got := make([]byte, chunk)
		if err := blob.NewClient(sys).ReadAt(ctx, id, v2, got, 0); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, first) {
			t.Fatal("mid-commit kill corrupted the committed data")
		}

		// Total outage: the commit fails cleanly — no version consumed,
		// dirty map intact — and succeeds verbatim after the revives.
		second := bytes.Repeat([]byte{0x33}, chunk)
		if _, err := im.WriteAt(ctx, second, chunk); err != nil {
			t.Fatal(err)
		}
		for _, n := range provs {
			lv.Kill(ctx, n)
		}
		if _, err := im.Commit(ctx); !errors.Is(err, blob.ErrNoReplica) {
			t.Fatalf("commit during total outage: %v, want ErrNoReplica", err)
		}
		if !im.Dirty() {
			t.Fatal("failed commit wiped the dirty map")
		}
		for _, n := range provs {
			lv.Revive(ctx, n)
		}
		v3, err := im.Commit(ctx)
		if err != nil {
			t.Fatalf("commit after revival: %v", err)
		}
		if v3 <= v2 {
			t.Fatalf("post-outage commit published nothing (v=%d)", v3)
		}
		if err := blob.NewClient(sys).ReadAt(ctx, id, v3, got, chunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, second) {
			t.Fatal("data written before the outage is wrong after the recovery commit")
		}
	})
}
