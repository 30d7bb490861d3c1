package blob

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// putOne stores one chunk: a PutBatch round of a single element.
func putOne(ctx *cluster.Ctx, ps *ProviderSet, key ChunkKey, p Payload) error {
	return ps.PutBatch(ctx, []ChunkPut{{Key: key, Payload: p}})
}

// Chaos/property tests for the failure-resilience layer: randomized
// fault plans are thrown at the provider set and the collector, and
// the invariants that make "handles node failure" a real property are
// asserted after every transition — no published chunk is lost while
// at least one copy lives, reads fail over rather than fail, and the
// garbage collector never reclaims a reachable chunk no matter how the
// failover reshuffled the copies.

// TestFailoverNoLostChunksProperty: random kill/revive sequences
// against a replicated provider set. After every transition with
// synchronous re-replication, every stored chunk must keep at least
// one live location and stay readable; Get must only fail once every
// copy of a chunk is gone.
func TestFailoverNoLostChunksProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := sim.NewRNG(int64(1000 + trial))
			nProv := 4 + rng.Intn(5)    // 4..8 providers
			replicas := 2 + rng.Intn(2) // 2..3 copies
			if replicas > nProv {
				replicas = nProv
			}
			nChunks := 32 + rng.Intn(64)
			fab := cluster.NewSim(cluster.DefaultConfig(nProv + 1))
			nodes := make([]cluster.NodeID, nProv)
			for i := range nodes {
				nodes[i] = cluster.NodeID(i + 1)
			}
			ps := NewProviderSet(nodes, replicas)
			lv := cluster.NewLiveness(nProv + 1)
			ps.SetLiveness(lv)
			lv.OnChange(ps.NodeChanged)

			fab.Run(func(ctx *cluster.Ctx) {
				keys := make([]ChunkKey, nChunks)
				for i := range keys {
					keys[i] = ps.AllocPending(1)
					if err := putOne(ctx, ps, keys[i], SyntheticPayload(4096, uint64(i+1))); err != nil {
						t.Fatalf("put %d: %v", i, err)
					}
				}
				// Random walk over kill/revive, never below one live
				// provider. Every step also publishes a fresh chunk —
				// often while providers are down, exercising the
				// write-around-failure path of Put.
				for step := 0; step < 24; step++ {
					victim := nodes[rng.Intn(nProv)]
					if lv.Alive(victim) && lv.AliveCount() > 2 {
						lv.Kill(ctx, victim)
					} else {
						lv.Revive(ctx, victim)
					}
					k := ps.AllocPending(1)
					if err := putOne(ctx, ps, k, SyntheticPayload(4096, uint64(1000+step))); err != nil {
						t.Fatalf("step %d: degraded put: %v", step, err)
					}
					keys = append(keys, k)
					for _, k := range keys {
						locs := ps.LiveLocations(k)
						if len(locs) == 0 {
							t.Fatalf("step %d: chunk %d lost every live location", step, k)
						}
						if _, err := ps.Get(ctx, k); err != nil {
							t.Fatalf("step %d: chunk %d unreadable with %d live copies: %v",
								step, k, len(locs), err)
						}
					}
				}
			})
		})
	}
}

// TestFailoverCounters: a single provider death must be visible in the
// Failovers and Rereplicated counters, and reads of a chunk whose
// every copy died must fail with ErrNoReplica (counted as a failed
// read) — not a wrong payload.
func TestFailoverCounters(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	nodes := []cluster.NodeID{0, 1, 2, 3}
	ps := NewProviderSet(nodes, 2)
	lv := cluster.NewLiveness(4) // no listeners: a transition runs no repair
	ps.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		key := ps.AllocPending(1)
		if err := putOne(ctx, ps, key, SyntheticPayload(1024, 7)); err != nil {
			t.Fatal(err)
		}
		ring := ps.Replicas(key)
		// Kill the primary without repair: the read fails over to the
		// second ring replica and costs a probe.
		lv.Kill(ctx, ring[0])
		before := fab.Now()
		if _, err := ps.Get(ctx, key); err != nil {
			t.Fatalf("read with one live replica: %v", err)
		}
		if ps.Failovers.Load() != 1 {
			t.Fatalf("Failovers = %d, want 1", ps.Failovers.Load())
		}
		cfg := fab.Config()
		if got := fab.Now() - before; got < cfg.RTT+cfg.ReqOverhead {
			t.Fatalf("failover read took %g, want >= probe cost %g", got, cfg.RTT+cfg.ReqOverhead)
		}
		// Kill the second replica too (still no repair): now every copy
		// is gone.
		lv.Kill(ctx, ring[1])
		if _, err := ps.Get(ctx, key); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("read with all replicas dead = %v, want ErrNoReplica", err)
		}
		if ps.FailedReads.Load() != 1 {
			t.Fatalf("FailedReads = %d, want 1", ps.FailedReads.Load())
		}
		// Revive the primary and run the repair sweep: the chunk is at
		// degree 1 (only the revived primary), so one copy is created.
		lv.Revive(ctx, ring[0])
		created := ps.ReReplicate(ctx)
		if created != 1 {
			t.Fatalf("ReReplicate created %d copies, want 1", created)
		}
		if ps.Rereplicated.Load() != 1 {
			t.Fatalf("Rereplicated = %d, want 1", ps.Rereplicated.Load())
		}
		if got := len(ps.LiveLocations(key)); got != 2 {
			t.Fatalf("live locations after repair = %d, want 2", got)
		}
		// The repair must survive the repaired node dying later: kill
		// the revived primary again, the repair copy serves.
		lv.Kill(ctx, ring[0])
		if _, err := ps.Get(ctx, key); err != nil {
			t.Fatalf("read from repair copy: %v", err)
		}
	})
}

// TestDegradedPutWritesAroundFailure: a Put while a ring replica is
// down must place the missing copy on a live substitute immediately
// (not wait for the next liveness transition), and a later revival
// must not count the skipped replica as a holder — the copy it never
// received cannot serve reads until a repair sweep backfills it.
func TestDegradedPutWritesAroundFailure(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	nodes := []cluster.NodeID{0, 1, 2, 3}
	ps := NewProviderSet(nodes, 2)
	lv := cluster.NewLiveness(4) // no listeners: a transition runs no repair
	ps.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		key := ps.AllocPending(1)
		ring := ps.Replicas(key)
		// Primary down at write time: the writer pushes the second copy
		// to a substitute outside the ring.
		lv.Kill(ctx, ring[0])
		if err := putOne(ctx, ps, key, SyntheticPayload(2048, 3)); err != nil {
			t.Fatal(err)
		}
		locs := ps.LiveLocations(key)
		if len(locs) != 2 {
			t.Fatalf("degraded put placed %d live copies (%v), want 2", len(locs), locs)
		}
		if slices.Contains(locs, ring[0]) {
			t.Fatalf("dead primary %d listed as a holder right after the put", ring[0])
		}
		// Reviving the primary must not resurrect the copy it never
		// received: it stays a void until a repair sweep backfills it.
		lv.Revive(ctx, ring[0])
		if locs := ps.LiveLocations(key); slices.Contains(locs, ring[0]) {
			t.Fatalf("revived primary %d counted as holder without a backfill (locs %v)", ring[0], locs)
		}
		// Even with both other holders down, the read must fail over to
		// real copies only — never be served by the void primary.
		if err := func() error { _, err := ps.Get(ctx, key); return err }(); err != nil {
			t.Fatalf("read before backfill: %v", err)
		}
		// The sweep backfills the void ring member first (it is the
		// chunk's rightful home), making it a holder again.
		lv.Kill(ctx, ring[1]) // drops the chunk to one live copy (the substitute)
		if created := ps.ReReplicate(ctx); created == 0 {
			t.Fatal("sweep created no copies with a void ring member available")
		}
		if locs := ps.LiveLocations(key); !slices.Contains(locs, ring[0]) {
			t.Fatalf("void primary not backfilled by the sweep (locs %v)", locs)
		}
		lv.Revive(ctx, ring[1])
	})
}

// TestPutWithEveryProviderDead: a put that finds every provider down
// fails with ErrNoReplica and stores nothing; once the providers are
// back, the same put stores the chunk and it reads back.
func TestPutWithEveryProviderDead(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	nodes := []cluster.NodeID{0, 1, 2, 3}
	ps := NewProviderSet(nodes, 1)
	lv := cluster.NewLiveness(4)
	ps.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		payload := SyntheticPayload(2048, 42)
		for _, n := range nodes {
			lv.Kill(ctx, n)
		}
		key := ps.AllocPending(1)
		if err := putOne(ctx, ps, key, payload); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("put with all providers dead = %v, want ErrNoReplica", err)
		}
		if _, ok := ps.Peek(key); ok || ps.ChunkCount() != 0 || ps.Writes.Load() != 0 {
			t.Fatalf("failed put stored something: %d chunks, %d writes", ps.ChunkCount(), ps.Writes.Load())
		}
		for _, n := range nodes {
			lv.Revive(ctx, n)
		}
		if err := putOne(ctx, ps, key, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ps.Get(ctx, key)
		if err != nil {
			t.Fatalf("read after revival: %v", err)
		}
		if got.Size != payload.Size || got.Tag != payload.Tag {
			t.Fatalf("read back %+v, want %+v", got, payload)
		}
	})
}

// TestGCNeverReclaimsReachableDuringFailover: provider deaths and
// repairs run between GC cycles; collection must only ever reclaim
// chunks of retired versions, never a chunk some live version
// references, and reads of live versions keep working throughout.
func TestGCNeverReclaimsReachableDuringFailover(t *testing.T) {
	rng := sim.NewRNG(77)
	fab := cluster.NewSim(cluster.DefaultConfig(6))
	provs := []cluster.NodeID{1, 2, 3, 4, 5}
	sys := &System{
		Meta:      NewMetaService(provs),
		VM:        NewVersionManager(0),
		Providers: NewProviderSet(provs, 2),
	}
	lv := cluster.NewLiveness(6)
	sys.Providers.SetLiveness(lv)
	lv.OnChange(sys.Providers.NodeChanged)
	col := NewCollector(sys)
	c := NewClient(sys)

	fab.Run(func(ctx *cluster.Ctx) {
		id, err := c.Create(ctx, 64<<10, 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		var versions []Version
		v := Version(0)
		for i := 0; i < 6; i++ {
			v, err = c.WriteFull(ctx, id, v, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, v)
		}
		for step := 0; step < 10; step++ {
			victim := provs[rng.Intn(len(provs))]
			if lv.Alive(victim) && lv.AliveCount() > 3 {
				lv.Kill(ctx, victim)
			} else {
				lv.Revive(ctx, victim)
			}
			// Retire the oldest still-live version every other step.
			if step%2 == 0 && len(versions) > 2 {
				if err := sys.VM.Retire(ctx, id, versions[0]); err != nil {
					t.Fatal(err)
				}
				versions = versions[1:]
			}
			if _, err := col.Collect(ctx); err != nil {
				t.Fatal(err)
			}
			// Every chunk of every live version stays fetchable.
			for _, live := range versions {
				if _, err := c.FetchChunks(ctx, id, live, 0, 16); err != nil {
					t.Fatalf("step %d: live version %d unreadable after GC+failover: %v", step, live, err)
				}
			}
		}
	})
}

// TestDegreeOneSweepDoesNoWork: at replication degree 1 no copy can
// ever be created — a key has its one copy or none — so a repair sweep
// returns before listing a single key: it creates nothing, allocates
// nothing, and a key's live locations are simply its ring while the
// ring's one member is up.
func TestDegreeOneSweepDoesNoWork(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	nodes := []cluster.NodeID{1, 2, 3, 4}
	ps := NewProviderSet(nodes, 1)
	lv := cluster.NewLiveness(5)
	ps.SetLiveness(lv)
	lv.OnChange(ps.NodeChanged)
	fab.Run(func(ctx *cluster.Ctx) {
		keys := make([]ChunkKey, 64)
		for i := range keys {
			keys[i] = ps.AllocPending(1)
			if err := putOne(ctx, ps, keys[i], SyntheticPayload(4096, uint64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		const victim = cluster.NodeID(2)
		checkLocations := func(when string, dead cluster.NodeID) {
			for _, k := range keys {
				var want []cluster.NodeID
				for _, n := range ps.Replicas(k) {
					if n != dead {
						want = append(want, n)
					}
				}
				if got := ps.LiveLocations(k); !slices.Equal(got, want) {
					t.Fatalf("%s: chunk %d live at %v, want its ring minus the dead node %v", when, k, got, want)
				}
			}
		}
		lv.Kill(ctx, victim)
		if created := ps.ReReplicate(ctx); created != 0 {
			t.Fatalf("degree-1 sweep created %d copies", created)
		}
		if allocs := testing.AllocsPerRun(10, func() { ps.ReReplicate(ctx) }); allocs != 0 {
			t.Errorf("degree-1 sweep allocates %.0f times: it listed the stored keys", allocs)
		}
		checkLocations("after the kill", victim)
		lv.Revive(ctx, victim)
		checkLocations("after the revive", -1)
		if n := ps.Rereplicated.Load(); n != 0 {
			t.Fatalf("Rereplicated = %d at degree 1", n)
		}
	})
}
