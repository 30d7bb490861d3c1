package mirror

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// TestFetchRetryAfterOutage (sim, deterministic): a demand fetch that
// hits the window where every replica of a chunk is down must not
// propagate ErrNoReplica — the module backs off RetryDelay and
// re-fetches, by which time the outage is over.
func TestFetchRetryAfterOutage(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(3))
	provs := []cluster.NodeID{1, 2}
	sys := blob.NewSystem(provs, 0, 1)
	lv := cluster.NewLiveness(3)
	sys.Providers.SetLiveness(lv)
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
		im, err := mod.Open(ctx, id, v, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Sleep(1.0)
		// Total outage: both providers die, shorter than the retry
		// backoff; nothing can repair (no survivor to copy from).
		lv.Kill(ctx, 1)
		lv.Kill(ctx, 2)
		rev := ctx.Go("revive", 0, func(cc *cluster.Ctx) {
			cc.Sleep(0.03)
			lv.Revive(cc, 1)
			lv.Revive(cc, 2)
		})
		if err := im.Read(ctx, 0, 8<<10); err != nil {
			t.Fatalf("read during outage = %v, want retried success", err)
		}
		ctx.Wait(rev)
		st := im.Stats()
		if st.FetchRetries == 0 {
			t.Fatal("outage read succeeded without a retry being counted")
		}
		if st.RemoteChunkFetches != 1 {
			t.Fatalf("RemoteChunkFetches = %d, want 1", st.RemoteChunkFetches)
		}
		// With retries exhausted while the outage persists, the error
		// does propagate (and is ErrNoReplica end to end).
		lv.Kill(ctx, 1)
		lv.Kill(ctx, 2)
		if err := im.Read(ctx, 8<<10, 8<<10); err == nil {
			t.Fatal("read with permanent outage succeeded")
		}
		lv.Revive(ctx, 1)
		lv.Revive(ctx, 2)
	})
}

// TestMirrorFailoverRace (live fabric, meant for -race): hypervisor
// reads with real bytes race against provider kill/revive transitions
// and the repair sweeps they trigger. Every read must return the
// correct content — failover, re-replication bookkeeping and the
// retry loop must be memory-safe under real concurrency.
func TestMirrorFailoverRace(t *testing.T) {
	const size, chunk = 128 << 10, 8 << 10
	fab := cluster.NewLive(6)
	provs := []cluster.NodeID{1, 2, 3, 4}
	sys := blob.NewSystem(provs, 0, 2)
	lv := cluster.NewLiveness(6)
	sys.Providers.SetLiveness(lv)
	lv.OnChange(sys.Providers.NodeChanged)

	base := make([]byte, size)
	for i := range base {
		base[i] = byte(i*13 + 5)
	}
	var stop atomic.Bool
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		id, err := c.Create(ctx, size, chunk)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		// Chaos activity: kill one provider at a time, repair, revive.
		// One victim at a time plus the sweep keeps every chunk at one
		// live copy or more, so reads must always succeed.
		chaos := ctx.Go("chaos", 5, func(cc *cluster.Ctx) {
			rng := sim.NewRNG(4242)
			for !stop.Load() {
				victim := provs[rng.Intn(len(provs))]
				lv.Kill(cc, victim)
				lv.Revive(cc, victim)
			}
		})
		// Reader activities on two nodes, each with its own module.
		for _, node := range []cluster.NodeID{0, 5} {
			node := node
			wg.Add(1)
			ctx.Go("reader", node, func(cc *cluster.Ctx) {
				defer wg.Done()
				mod := NewModule(node, blob.NewClient(sys))
				im, err := mod.Open(cc, id, v, true)
				if err != nil {
					t.Errorf("open on %d: %v", node, err)
					return
				}
				rng := sim.NewRNG(int64(100 + node))
				buf := make([]byte, chunk)
				for i := 0; i < 200; i++ {
					off := int64(rng.Intn(size/chunk)) * chunk
					if _, err := im.ReadAt(cc, buf, off); err != nil {
						t.Errorf("read at %d: %v", off, err)
						return
					}
					if !bytes.Equal(buf, base[off:off+chunk]) {
						t.Errorf("read at %d returned wrong bytes under failover", off)
						return
					}
				}
			})
		}
		wg.Wait()
		stop.Store(true)
		ctx.Wait(chaos)
	})
}
