package mirror

import (
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/p2p"
)

// TestConcurrentPrefetchAndDemandCountOnce is the regression test for
// the double-counting guard: a prefetch and a demand read racing on
// the same chunk must leave the chunk counted once in the image stats
// and announced once to the sharing cohort.
//
// The race is staged deterministically on the simulated fabric: both
// activities start at the same virtual time, the prefetch begins
// fetching chunk 0, and while its transfer is in flight the demand
// read fetches the same chunk. One merge wins; the loser is recorded
// as a DuplicateFetch instead of inflating the counters.
func TestConcurrentPrefetchAndDemandCountOnce(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	sys := blob.NewSystem([]cluster.NodeID{1, 2}, 3, 1)
	reg := p2p.NewRegistry(3, p2p.DefaultConfig())
	mod := NewModule(0, blob.NewClient(sys))

	var im *Image
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
		mod.SetSharer(reg.Register(ctx, id, []cluster.NodeID{0, 1}))
		im, err = mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
	})

	fab.Run(func(ctx *cluster.Ctx) {
		pre := ctx.Go("prefetch", 0, func(cc *cluster.Ctx) {
			if err := im.Prefetch(cc, []int64{0, 1, 2, 3}); err != nil {
				t.Error(err)
			}
		})
		dem := ctx.Go("demand", 0, func(cc *cluster.Ctx) {
			if err := im.Read(cc, 0, 100); err != nil { // chunk 0
				t.Error(err)
			}
		})
		ctx.Wait(pre)
		ctx.Wait(dem)
	})

	st := im.Stats()
	if st.RemoteChunkFetches != 4 {
		t.Errorf("RemoteChunkFetches = %d, want 4 (each chunk counted once)", st.RemoteChunkFetches)
	}
	if st.DuplicateFetches != 1 {
		t.Errorf("DuplicateFetches = %d, want 1 (the lost merge race)", st.DuplicateFetches)
	}
	// The demand-read chunk appears in the access profile exactly once,
	// whichever side won the merge race.
	hits := 0
	for _, ci := range im.AccessOrder() {
		if ci == 0 {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("chunk 0 appears %d times in access profile %v, want once", hits, im.AccessOrder())
	}
	cs := reg.Cohort(im.BlobID()).Stats()
	if cs.Announced != 4 {
		t.Errorf("cohort saw %d announcements, want 4", cs.Announced)
	}
	if cs.Duplicates != 0 {
		t.Errorf("cohort deduplicated %d announcements; the mirror guard should have prevented them", cs.Duplicates)
	}
}

// TestPrefetchSkipsInflightDemandFetch: a prefetch arriving while a
// demand fetch of the same chunk is in flight skips it entirely — no
// second transfer is issued for a chunk the boot is already fetching.
func TestPrefetchSkipsInflightDemandFetch(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	sys := blob.NewSystem([]cluster.NodeID{1, 2}, 3, 1)
	mod := NewModule(0, blob.NewClient(sys))

	var im *Image
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
		im, err = mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
	})

	fab.Run(func(ctx *cluster.Ctx) {
		dem := ctx.Go("demand", 0, func(cc *cluster.Ctx) {
			if err := im.Read(cc, 0, 100); err != nil {
				t.Error(err)
			}
		})
		pre := ctx.Go("prefetch", 0, func(cc *cluster.Ctx) {
			// Let the demand fetch get in flight first (it pays the
			// 20 µs FUSE crossing before fetching, and its transfer
			// lasts hundreds of µs), then prefetch the same chunk: it
			// must be skipped, not fetched twice.
			cc.Sleep(1e-4)
			if err := im.Prefetch(cc, []int64{0}); err != nil {
				t.Error(err)
			}
		})
		ctx.Wait(dem)
		ctx.Wait(pre)
	})

	st := im.Stats()
	if st.RemoteChunkFetches != 1 || st.DuplicateFetches != 0 || st.PrefetchedChunks != 0 {
		t.Errorf("stats = %+v, want exactly one demand fetch and no prefetch work", st)
	}
}
