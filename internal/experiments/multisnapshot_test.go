package experiments

import (
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// herdCommit provisions n instances over a dedicated provider pool,
// dirties each with one round of §5.3 writes, and commits them all
// concurrently (first snapshot, so CLONE+COMMIT). It returns the pool
// for counter inspection and the most simulated processes that were
// alive at once during the commit round, sampled every 50 µs of
// virtual time.
func herdCommit(t *testing.T, p Params, instances, providers int) (*Env, int) {
	t.Helper()
	sp := newEnv(p, dedicatedLayout(instances, providers, cluster.Topology{}), OurApproach)
	peak := 0
	sp.Fab.Run(func(ctx *cluster.Ctx) {
		insts := sp.provisionAll(ctx, sim.NewRNG(p.Seed+7))
		committed := false
		sampler := ctx.Go("sampler", ctx.Node(), func(cc *cluster.Ctx) {
			for !committed {
				peak = max(peak, sp.Fab.Env().Procs())
				cc.Sleep(50e-6)
			}
		})
		_, err := sp.Orch.SnapshotAll(ctx, insts)
		committed = true
		ctx.WaitAll([]cluster.Task{sampler})
		if err != nil {
			t.Fatal(err)
		}
	})
	return sp, peak
}

// TestHerdCommitPerProviderRPCs pins the write-side RPC accounting of a
// concurrent commit round: every instance pays exactly one chunk-put
// RPC per provider it stores on, however many chunks it dirtied, and
// never keeps more than clientParallel (16) of them in flight.
func TestHerdCommitPerProviderRPCs(t *testing.T) {
	// perProvider checks that every provider served exactly one put RPC
	// per commit plus one for the base upload (itself one batch). Each
	// instance's diff spans every ring member — a commit's keys are
	// consecutive and there are at least as many as providers — so the
	// counts are even.
	perProvider := func(t *testing.T, sp *Env, instances, providers int) {
		t.Helper()
		per := sp.Sys.Providers.NodePutRPCs()
		if len(per) != providers {
			t.Fatalf("puts landed on %d providers, want %d", len(per), providers)
		}
		var total int64
		for node, n := range per {
			if n != int64(instances)+1 {
				t.Fatalf("provider %d served %d put RPCs, want %d (one per commit plus the base upload)", node, n, instances+1)
			}
			total += n
		}
		if got := sp.Sys.Providers.PutRPCs.Load(); got != total {
			t.Fatalf("PutRPCs total %d != per-provider sum %d", got, total)
		}
		if writes := sp.Sys.Providers.Writes.Load(); total*2 >= writes {
			t.Fatalf("%d put RPCs for %d chunk writes: the round was not batched", total, writes)
		}
	}

	t.Run("4 providers", func(t *testing.T) {
		const instances, providers = 64, 4
		sp, _ := herdCommit(t, Quick(), instances, providers)
		perProvider(t, sp, instances, providers)
	})

	// A pool wider than the client's connection pool: still one RPC per
	// provider per commit, but served sixteen at a time. Alive at the
	// peak are the root activity and the sampler, and per instance its
	// snapshot, its clone, its put-chunks and the put-batch activities.
	t.Run("32 providers", func(t *testing.T) {
		const instances, providers = 4, 32
		p := Quick()
		p.SnapshotDiff = 16 << 20 // 64 dirty chunks: every commit reaches all 32 providers
		sp, peak := herdCommit(t, p, instances, providers)
		perProvider(t, sp, instances, providers)
		if limit := 2 + instances*(3+16); peak > limit {
			t.Fatalf("%d processes alive at the peak of the round, want at most %d (16 put-batch activities per commit)", peak, limit)
		}
		if peak <= 2+instances*3 {
			t.Fatalf("peak of %d processes: the sampler never saw a put-batch activity", peak)
		}
	})
}
