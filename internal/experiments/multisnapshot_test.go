package experiments

import (
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// herdCommit provisions one instance per instance node of the layout,
// dirties each with one round of §5.3 writes, and commits them all
// concurrently (first snapshot, so CLONE+COMMIT). It returns the pool
// for counter inspection, the most simulated processes that were alive
// at once during the commit round, sampled every 50 µs of virtual
// time, and how many chunks the instances committed between them.
func herdCommit(t *testing.T, p Params, l layout) (sp *Env, peak int, chunks int64) {
	t.Helper()
	sp = newEnv(p, l, OurApproach)
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
		for _, inst := range insts {
			chunks += inst.Disk.(*blobvfs.Disk).Stats().CommittedChunks
		}
	})
	return sp, peak, chunks
}

// TestHerdCommitPerProviderRPCs pins the write-side RPC accounting of a
// concurrent commit round: every instance pays exactly one chunk-put
// RPC per provider it stores on, however many chunks it dirtied, and
// never keeps more than clientParallel (16) of them in flight.
func TestHerdCommitPerProviderRPCs(t *testing.T) {
	// perProvider checks that every provider served exactly want put
	// RPCs, the base upload (itself one batch) among them.
	perProvider := func(t *testing.T, sp *Env, providers int, want int64) {
		t.Helper()
		per := sp.Sys.Providers.NodePutRPCs()
		if len(per) != providers {
			t.Fatalf("puts landed on %d providers, want %d", len(per), providers)
		}
		var total int64
		for node, n := range per {
			if n != want {
				t.Fatalf("provider %d served %d put RPCs, want %d (the base upload plus its share of the commits)", node, n, want)
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

	// A pool inside one stripe window: each instance's diff spans every
	// ring member — a commit's keys are consecutive and there are at
	// least as many as providers — so every provider serves one RPC per
	// commit plus the base upload.
	t.Run("4 providers", func(t *testing.T) {
		const instances, providers = 64, 4
		sp, _, _ := herdCommit(t, Quick(), dedicatedLayout(instances, providers))
		perProvider(t, sp, providers, instances+1)
	})

	// A pool two stripe windows wide: a diff of one stripe block (16 MiB
	// is 64 chunks, a few of them hit twice) takes a block of keys to
	// itself, so a commit is one RPC of at most four chunks to each of
	// the 16 providers of its window — one wave through the connection
	// pool — and consecutive commits take alternate halves of the pool.
	// The base upload still reaches all 32. Alive at the peak are the
	// root activity and the sampler, and per instance its snapshot, its
	// clone, its put-chunks and the put-batch activities.
	t.Run("32 providers", func(t *testing.T) {
		const instances, providers, window = 4, 32, 16
		p := Quick()
		p.SnapshotDiff = 16 << 20
		sp, peak, chunks := herdCommit(t, p, dedicatedLayout(instances, providers))
		perProvider(t, sp, providers, 1+instances*window/providers)
		if chunks > instances*window*4 || chunks <= instances*window*3 {
			t.Fatalf("%d chunks in %d commits: not 16 shares of 3–4 chunks each", chunks, instances)
		}
		if limit := 2 + instances*(3+window); peak > limit {
			t.Fatalf("%d processes alive at the peak of the round, want at most %d (16 put-batch activities per commit)", peak, limit)
		}
		if peak <= 2+instances*3 {
			t.Fatalf("peak of %d processes: the sampler never saw a put-batch activity", peak)
		}
	})
}

// TestHerdShareSize is the snapshot-herd shape (bench/): storage
// aggregated over 110 nodes, 15 MiB diffs. A commit of 60 chunks must
// reach one stripe window of providers with one RPC each, not 60
// providers with a chunk each, and store what it did before.
func TestHerdShareSize(t *testing.T) {
	const instances, providers = 12, 110
	p := Quick()
	p.SnapshotDiff = 15 << 20
	sp, _, chunks := herdCommit(t, p, aggregatedLayout(providers, instances))
	ps := sp.Sys.Providers
	base := p.ImageSize / int64(p.ChunkSize)
	if got := ps.Writes.Load() - base; got != chunks || chunks < instances*50 {
		t.Fatalf("%d chunk writes for %d committed chunks of %d instances", got, chunks, instances)
	}
	if rpcs := ps.PutRPCs.Load() - providers; rpcs > instances*17 {
		t.Fatalf("%d put RPCs for %d commits, want at most 17 each", rpcs, instances)
	}
}
