package mirror

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
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
		st := im.chunks[0]
		im.mu.Unlock()
		if want := (span{4096, 4100}); st.Dirty != want {
			t.Fatalf("dirty range after commit = %v, want %v (only the in-window write)", st.Dirty, want)
		}
		if len(im.during) != 0 {
			t.Fatalf("publish window not closed: during=%v", im.during)
		}
	})
}

// TestCloneCleansUpOnPinFailure: a Clone whose pin of the fresh clone
// fails must retire the clone it just published — otherwise the image
// keeps pointing at the base while a zombie blob survives retention and
// GC forever.
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

// TestSyntheticCommitTagsDistinctPerChunk: the synthetic fallback
// payload tag must mix in the chunk index — a commit of N synthetic
// chunks under deduplication must store N distinct chunks, not alias
// N-1 of them onto the first (which skewed dedup and GC accounting).
func TestSyntheticCommitTagsDistinctPerChunk(t *testing.T) {
	fab := cluster.NewLive(2)
	sys := blob.NewSystem([]cluster.NodeID{0, 1}, 0, 1)
	sys.Providers.EnableDedup()
	mod := NewModule(0, blob.NewClient(sys))
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, 16<<10, 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteFull(ctx, id, 0, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		im, err := mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Write(ctx, 0, 16<<10); err != nil {
			t.Fatal(err)
		}
		hits0 := sys.Providers.DedupHits.Load()
		chunks0 := sys.Providers.ChunkCount()
		if _, err := im.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if hits := sys.Providers.DedupHits.Load() - hits0; hits != 0 {
			t.Fatalf("synthetic commit aliased %d of its chunks (identical tags)", hits)
		}
		if got := sys.Providers.ChunkCount() - chunks0; got != 4 {
			t.Fatalf("stored %d new chunks, want 4 distinct", got)
		}
	})
}

// TestSyntheticForkTagsDistinctPerInstance: two instances fork from one
// base snapshot and each commits its own modification of the same four
// chunks. The payloads are different content, so under deduplication
// they must be stored as eight chunks. The tag therefore has to carry
// the identity the publish lands on (each instance's clone), not the
// fork source's, which both instances share: the clone of a forking
// Snapshot overlaps the capture of the payloads, and a tag stamped at
// capture time names the source.
func TestSyntheticForkTagsDistinctPerInstance(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(2))
	sys := blob.NewSystem([]cluster.NodeID{0, 1}, 0, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, 16<<10, 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteFull(ctx, id, 0, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		hits0 := sys.Providers.DedupHits.Load()
		chunks0 := sys.Providers.ChunkCount()
		var tasks []cluster.Task
		for node := cluster.NodeID(0); node < 2; node++ {
			mod := NewModule(node, blob.NewClient(sys))
			tasks = append(tasks, ctx.Go("instance", node, func(cc *cluster.Ctx) {
				im, err := mod.Open(cc, id, v, false)
				if err != nil {
					t.Error(err)
					return
				}
				if err := im.Write(cc, 0, 16<<10); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := im.Snapshot(cc, true); err != nil {
					t.Error(err)
				}
			}))
		}
		ctx.WaitAll(tasks)
		if hits := sys.Providers.DedupHits.Load() - hits0; hits != 0 {
			t.Fatalf("%d chunks of one instance aliased onto the other's (both stamped the fork source's identity)", hits)
		}
		if got := sys.Providers.ChunkCount() - chunks0; got != 8 {
			t.Fatalf("stored %d new chunks, want 8 distinct", got)
		}
	})
}
