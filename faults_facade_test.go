package blobvfs_test

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
)

// TestWithFaultPlanEndToEnd: the façade surface of the fault
// subsystem — a plan installed with WithFaultPlan, armed with
// ArmFaults, kills a provider; reads keep working through failover,
// the chunks the dead node held are re-replicated, and the Stats
// counters expose all of it.
func TestWithFaultPlanEndToEnd(t *testing.T) {
	fab, repo := newRepo(t, 4,
		blobvfs.WithReplicas(2),
		blobvfs.WithFaultPlan(blobvfs.KillAt(0, 1)),
	)
	base := img(32<<10, 3)
	var ref blobvfs.Snapshot
	fab.Run(func(ctx *blobvfs.Ctx) {
		var err error
		ref, err = repo.Create(ctx, "img", base)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.ArmFaults(ctx); err != nil {
			t.Fatal(err)
		}
		if err := repo.ArmFaults(ctx); err != nil {
			t.Fatalf("second arm must be a no-op, got %v", err)
		}
	})
	// Run returned, so the injector finished: node 1 is down and its
	// chunks were re-replicated.
	if repo.NodeAlive(1) {
		t.Fatal("node 1 still alive after the plan ran")
	}
	st := repo.Stats()
	if st.Rereplicated == 0 {
		t.Fatal("no chunks re-replicated after the provider death")
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close(ctx)
		got := make([]byte, len(base))
		if _, err := disk.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("read with a dead provider: %v", err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("failover read returned wrong bytes")
		}
	})
	st = repo.Stats()
	if st.Failovers == 0 {
		t.Fatal("reads over a dead primary recorded no failovers")
	}
	if st.FailedFetches != 0 {
		t.Fatalf("FailedFetches = %d, want 0 (replication must absorb one death)", st.FailedFetches)
	}
}

// TestWithMetaReplicasEndToEnd: the replicated control plane through
// the façade — a repo opened with WithMetaReplicas(2) loses a
// metadata provider, the tree nodes it held are re-replicated, reads
// keep resolving metadata through failover, and not a single descent
// fails.
func TestWithMetaReplicasEndToEnd(t *testing.T) {
	fab, repo := newRepo(t, 4,
		blobvfs.WithReplicas(2),
		blobvfs.WithMetaReplicas(2),
		blobvfs.WithFaultPlan(blobvfs.KillAt(0, 1)),
	)
	base := img(32<<10, 5)
	var ref blobvfs.Snapshot
	fab.Run(func(ctx *blobvfs.Ctx) {
		var err error
		ref, err = repo.Create(ctx, "img", base)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.ArmFaults(ctx); err != nil {
			t.Fatal(err)
		}
	})
	st := repo.Stats()
	if st.MetaRereplicated == 0 {
		t.Fatal("no metadata re-replicated after the provider death")
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		disk, err := repo.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close(ctx)
		got := make([]byte, len(base))
		if _, err := disk.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("read with a dead metadata provider: %v", err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("failover read returned wrong bytes")
		}
	})
	st = repo.Stats()
	if st.MetaFailovers == 0 {
		t.Fatal("descents over a dead metadata primary recorded no failovers")
	}
	if st.FailedDescents != 0 {
		t.Fatalf("FailedDescents = %d, want 0 (metadata replication must absorb one death)", st.FailedDescents)
	}
}

// TestWithMetaReplicasValidation: the degree must fit the provider
// pool, like WithReplicas.
func TestWithMetaReplicasValidation(t *testing.T) {
	fab := blobvfs.NewLiveCluster(3)
	for _, r := range []int{0, -1, 4} {
		if _, err := blobvfs.Open(fab, blobvfs.WithMetaReplicas(r)); !errors.Is(err, blobvfs.ErrOutOfRange) {
			t.Errorf("WithMetaReplicas(%d): err = %v, want ErrOutOfRange", r, err)
		}
	}
}

// TestScopedFaultEventsEndToEnd: rack- and zone-scoped plan events
// expand to their member nodes when armed, and need a topology to
// resolve at Open.
func TestScopedFaultEventsEndToEnd(t *testing.T) {
	topo := blobvfs.Topology{
		Zones: 2, RacksPerZone: 2, NodesPerRack: 2,
		RackBandwidth: 1e9, ZoneBandwidth: 1e9,
	}
	fab := blobvfs.NewLiveCluster(8)
	repo, err := blobvfs.Open(fab,
		blobvfs.WithTopology(topo),
		blobvfs.WithFaultPlan(blobvfs.KillRackAt(0, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		if err := repo.ArmFaults(ctx); err != nil {
			t.Fatal(err)
		}
	})
	for n := blobvfs.NodeID(0); n < 8; n++ {
		want := n != 2 && n != 3 // rack 1 = nodes 2,3
		if repo.NodeAlive(n) != want {
			t.Errorf("node %d alive = %v after rack kill, want %v", n, repo.NodeAlive(n), want)
		}
	}

	// Scoped events without a topology cannot resolve.
	if _, err := blobvfs.Open(fab, blobvfs.WithFaultPlan(blobvfs.KillZoneAt(0, 0))); !errors.Is(err, blobvfs.ErrOutOfRange) {
		t.Fatalf("zone-scoped event on a flat repo: %v, want ErrOutOfRange", err)
	}
}

// TestRedundantFaultPlanRejected: a plan that kills an already-dead
// node (or revives a live one) is a scenario bug; Open rejects it with
// the typed *FaultPlanError naming the offending transition.
func TestRedundantFaultPlanRejected(t *testing.T) {
	fab := blobvfs.NewLiveCluster(4)
	_, err := blobvfs.Open(fab, blobvfs.WithFaultPlan(
		blobvfs.KillAt(1, 2), blobvfs.KillAt(3, 2),
	))
	var planErr *blobvfs.FaultPlanError
	if !errors.As(err, &planErr) {
		t.Fatalf("kill+kill plan: err = %v, want *FaultPlanError", err)
	}
	if planErr.Node != 2 || planErr.At != 3 {
		t.Fatalf("FaultPlanError = %+v, want node 2 at t=3", planErr)
	}
	if _, err := blobvfs.Open(fab, blobvfs.WithFaultPlan(blobvfs.ReviveAt(0, 1))); err == nil {
		t.Fatal("revive-before-kill plan accepted")
	}
}

// TestFaultPlanValidationAndArming: malformed plans are rejected at
// Open, and ArmFaults demands a configured plan on an open repo.
func TestFaultPlanValidationAndArming(t *testing.T) {
	fab := blobvfs.NewLiveCluster(2)
	if _, err := blobvfs.Open(fab, blobvfs.WithFaultPlan(blobvfs.KillAt(1, 7))); !errors.Is(err, blobvfs.ErrOutOfRange) {
		t.Fatalf("out-of-range fault node: %v, want ErrOutOfRange", err)
	}
	if _, err := blobvfs.Open(fab, blobvfs.WithFaultPlan(blobvfs.ReviveAt(-1, 0))); !errors.Is(err, blobvfs.ErrOutOfRange) {
		t.Fatalf("negative fault time: %v, want ErrOutOfRange", err)
	}

	repo, err := blobvfs.Open(fab)
	if err != nil {
		t.Fatal(err)
	}
	if !repo.NodeAlive(0) || !repo.NodeAlive(1) {
		t.Fatal("fresh repo must report all nodes alive")
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		if err := repo.ArmFaults(ctx); !errors.Is(err, blobvfs.ErrNotFound) {
			t.Fatalf("arming without a plan: %v, want ErrNotFound", err)
		}
		repo.Close()
		if err := repo.ArmFaults(ctx); !errors.Is(err, blobvfs.ErrClosed) {
			t.Fatalf("arming a closed repo: %v, want ErrClosed", err)
		}
	})
}

// TestDeadProviderServesNoRead: there is one record of which nodes are
// up, so a provider is dead for every service in the instant the fault
// plan kills it. With replicated metadata the kill is followed by a
// metadata repair sweep that takes virtual time (about a thousand small
// copies here), and then by the chunk sweep; a reader that goes through
// the image chunk by chunk the whole time must not be served a single
// chunk by the killed provider once the repo reports it dead. (The
// provider set used to keep a flag of its own, flipped only when its
// listener's turn came, after the metadata sweep.)
func TestDeadProviderServesNoRead(t *testing.T) {
	const victim, reader, chunk, chunks = 1, 4, 4 << 10, 1024
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	repo, err := blobvfs.Open(fab,
		blobvfs.WithProviders(0, 1, 2, 3),
		blobvfs.WithChunkSize(chunk),
		blobvfs.WithReplicas(2),
		blobvfs.WithMetaReplicas(2),
		blobvfs.WithFaultPlan(blobvfs.KillAt(0.05, victim)),
	)
	if err != nil {
		t.Fatal(err)
	}
	served := func() int64 { return repo.System().Providers.NodeReads()[victim] }
	var afterDeath, whileSweeping int
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, err := repo.CreateSynthetic(ctx, "img", chunks*chunk)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Wait(ctx.Go("reader", reader, func(cc *blobvfs.Ctx) {
			disk, err := repo.OpenDisk(cc, reader, ref)
			if err != nil {
				t.Error(err)
				return
			}
			defer disk.Close(cc)
			if err := repo.ArmFaultsRebased(cc); err != nil {
				t.Error(err)
				return
			}
			for i := int64(0); i < chunks; i++ {
				dead, before := !repo.NodeAlive(victim), served()
				sweeping := dead && repo.Stats().Rereplicated == 0
				if err := disk.Read(cc, i*chunk, chunk); err != nil {
					t.Errorf("read of chunk %d: %v", i, err)
					return
				}
				if !dead {
					continue
				}
				afterDeath++
				if sweeping {
					whileSweeping++
				}
				if served() != before {
					t.Errorf("t=%.4f: chunk %d was served by provider %d, which the repo reports dead", cc.Now(), i, victim)
				}
			}
		}))
	})
	if st := repo.Stats(); st.MetaRereplicated == 0 || st.Rereplicated == 0 {
		t.Fatalf("the sweeps did not run: %+v", st)
	}
	if whileSweeping == 0 || afterDeath == whileSweeping {
		t.Fatalf("%d reads after the death, %d of them before the chunk sweep began: the test needs some of both", afterDeath, whileSweeping)
	}
}
