package mirror

import (
	"math/rand"
	"sync"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/p2p"
)

// TestGCConcurrentFetchAnnounceRetract is the race test for the
// garbage collector against the full sharing data path — the race the
// fall-back in blob.Client.getChunk exists for: cohort members demand-
// fetch (announcing mirrored chunks), overwrite (retracting them),
// commit new versions, and retire old ones, while a collector with the
// registry as its reclaim listener runs continuously. On the live
// fabric all of this is real goroutines, so -race checks the lifecycle
// locks, and the content assertions check that no live byte is lost:
// every read an image serves must match the writer's shadow copy.
func TestGCConcurrentFetchAnnounceRetract(t *testing.T) {
	const (
		members = 4
		rounds  = 10
		chunks  = 16
		csize   = 512
	)
	// Nodes 0..members-1 run mirrors; members..members+1 are providers;
	// the last node hosts the version manager and the p2p tracker.
	fab := cluster.NewLive(members + 3)
	provs := []cluster.NodeID{members, members + 1}
	service := cluster.NodeID(members + 2)
	sys := blob.NewSystem(provs, service, 1)
	reg := p2p.NewRegistry(service, p2p.DefaultConfig())
	gc := blob.NewCollector(sys, reg)

	var baseID blob.ID
	var baseV blob.Version
	baseData := make([]byte, chunks*csize)
	for i := range baseData {
		baseData[i] = byte(i * 13)
	}
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		baseID, err = c.Create(ctx, chunks*csize, csize)
		if err != nil {
			t.Fatal(err)
		}
		baseV, err = c.WriteAt(ctx, baseID, 0, baseData, 0)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []cluster.NodeID
		for i := 0; i < members; i++ {
			nodes = append(nodes, cluster.NodeID(i))
		}
		reg.Register(ctx, baseID, nodes)
	})

	var wg sync.WaitGroup
	finalID := make([]blob.ID, members)
	finalV := make([]blob.Version, members)
	fab.Run(func(ctx *cluster.Ctx) {
		cohort := reg.Cohort(baseID)
		done := make(chan struct{})
		var tasks []cluster.Task
		for w := 0; w < members; w++ {
			w := w
			wg.Add(1)
			tasks = append(tasks, ctx.Go("member", cluster.NodeID(w), func(cc *cluster.Ctx) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(31 + w)))
				mod := NewModule(cluster.NodeID(w), blob.NewClient(sys))
				mod.SetSharer(cohort)
				im, err := mod.Open(cc, baseID, baseV, true)
				if err != nil {
					t.Error(err)
					return
				}
				shadow := append([]byte(nil), baseData...)
				for r := 0; r < rounds; r++ {
					// Demand-read a random range: fetches announce to
					// the cohort, and may be served by a sibling whose
					// copy the GC is about to invalidate.
					lo := rng.Intn(chunks * csize)
					ln := 1 + rng.Intn(chunks*csize-lo)
					buf := make([]byte, ln)
					if _, err := im.ReadAt(cc, buf, int64(lo)); err != nil {
						t.Errorf("member %d read: %v", w, err)
						return
					}
					for i := range buf {
						if buf[i] != shadow[lo+i] {
							t.Errorf("member %d: read diverged at byte %d", w, lo+i)
							return
						}
					}
					// Overwrite a chunk-sized region: retracts the
					// announcement and dirties the chunk.
					ci := rng.Intn(chunks)
					patch := make([]byte, csize)
					for i := range patch {
						patch[i] = byte(w*32 + r + i)
					}
					if _, err := im.WriteAt(cc, patch, int64(ci*csize)); err != nil {
						t.Errorf("member %d write: %v", w, err)
						return
					}
					copy(shadow[ci*csize:], patch)
					// Snapshot: first round clones into an own lineage,
					// then commits — announcing the committed chunks.
					if im.BlobID() == baseID {
						if err := im.Clone(cc); err != nil {
							t.Errorf("member %d clone: %v", w, err)
							return
						}
					}
					v, err := im.Commit(cc)
					if err != nil {
						t.Errorf("member %d commit: %v", w, err)
						return
					}
					// Keep-last-2 retention on the own lineage feeds the
					// collector retired versions to reclaim.
					if v > 2 {
						if _, err := sys.VM.RetireUpTo(cc, im.BlobID(), v-2); err != nil {
							t.Errorf("member %d retire: %v", w, err)
							return
						}
					}
				}
				// Final full read against the shadow.
				buf := make([]byte, chunks*csize)
				if _, err := im.ReadAt(cc, buf, 0); err != nil {
					t.Errorf("member %d final read: %v", w, err)
					return
				}
				for i := range buf {
					if buf[i] != shadow[i] {
						t.Errorf("member %d: final content diverged at byte %d", w, i)
						return
					}
				}
				finalID[w], finalV[w] = im.BlobID(), im.Version()
				im.Close(cc)
			}))
		}
		collector := ctx.Go("gc", service, func(cc *cluster.Ctx) {
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := gc.Collect(cc); err != nil {
					t.Errorf("concurrent Collect: %v", err)
					return
				}
			}
		})
		wg.Wait()
		close(done)
		ctx.Wait(collector)
		for _, task := range tasks {
			ctx.Wait(task)
		}
	})

	// Quiesced: one deterministic cycle reclaims whatever the racing
	// collector did not catch in flight.
	fab.Run(func(ctx *cluster.Ctx) {
		if _, err := gc.Collect(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if sys.Providers.Freed.Load() == 0 {
		t.Fatal("churning members never made the collector reclaim a chunk")
	}

	// A member's own garbage never leaves a stale location record: the
	// write that makes a committed chunk unreachable also retracts it.
	// The stale records the GC retraction exists for come from a
	// sibling mirroring a snapshot that is later retired: node 0 mirrors
	// member 1's final snapshot (announcing its chunks), closes without
	// dirtying, the lineage is retired, and the collector must then
	// withdraw node 0's announcements from the cohort.
	fab.Run(func(ctx *cluster.Ctx) {
		cohort := reg.Cohort(baseID)
		task := ctx.Go("migrate", 0, func(cc *cluster.Ctx) {
			mod := NewModule(0, blob.NewClient(sys))
			mod.SetSharer(cohort)
			im, err := mod.Open(cc, finalID[1], finalV[1], false)
			if err != nil {
				t.Error(err)
				return
			}
			if err := im.Read(cc, 0, int64(chunks*csize)); err != nil {
				t.Error(err)
			}
			im.Close(cc)
		})
		ctx.Wait(task)
		if _, err := sys.VM.RetireUpTo(ctx, finalID[1], finalV[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Collect(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if st := reg.Cohort(baseID).Stats(); st.Reclaimed == 0 {
		t.Fatal("no reclaimed chunk was ever retracted from the cohort")
	}
}

// TestReopenRetractsStaleAnnouncement: announcements survive a
// close/reopen cycle (the node is still a registered holder — its
// local mirror file survived), so a dirtying write after the reopen
// must still retract the stale location record.
func TestReopenRetractsStaleAnnouncement(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	sys := blob.NewSystem([]cluster.NodeID{1, 2}, 3, 1)
	reg := p2p.NewRegistry(3, p2p.DefaultConfig())
	mod := NewModule(0, blob.NewClient(sys))

	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, 64<<10, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		co := reg.Register(ctx, id, []cluster.NodeID{0, 1})
		mod.SetSharer(co)
		im, err := mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Read(ctx, 0, 100); err != nil { // announce chunk 0
			t.Fatal(err)
		}
		if st := co.Stats(); st.Announced != 1 {
			t.Fatalf("Announced = %d, want 1", st.Announced)
		}
		im.Close(ctx)

		im, err = mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Write(ctx, 10, 20); err != nil { // dirty chunk 0
			t.Fatal(err)
		}
		if st := co.Stats(); st.Retracted != 1 {
			t.Fatalf("Retracted = %d after post-reopen dirtying write, want 1 (stale holder record must be withdrawn)", st.Retracted)
		}
	})
}
