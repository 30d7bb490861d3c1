package p2p

import (
	"sync"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// runOn executes fn as an activity on the given node of a live fabric.
func runOn(fab *cluster.Live, node cluster.NodeID, fn func(ctx *cluster.Ctx)) {
	fab.Run(func(ctx *cluster.Ctx) {
		t := ctx.Go("test", node, fn)
		ctx.Wait(t)
	})
}

func newCohort(t *testing.T, fab *cluster.Live, cfg Config, members []cluster.NodeID) (*Registry, *Cohort) {
	t.Helper()
	reg := NewRegistry(cluster.NodeID(fab.Nodes()-1), cfg)
	var co *Cohort
	fab.Run(func(ctx *cluster.Ctx) {
		co = reg.Register(ctx, 1, members)
	})
	return reg, co
}

// TestLocateFallsBackToProvidersWhenNoPeer: a chunk nobody announced
// must miss, sending the caller to the providers.
func TestLocateFallsBackToProvidersWhenNoPeer(t *testing.T) {
	fab := cluster.NewLive(4)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		if _, _, ok := co.Locate(ctx, 7); ok {
			t.Error("Locate found a peer for a never-announced chunk")
		}
	})
	if st := co.Stats(); st.Misses != 1 || st.PeerHits != 0 {
		t.Errorf("stats = %+v, want 1 miss and no hits", st)
	}
}

// TestLocateNeverReturnsSelf: the only holder of a chunk must not be
// offered to itself; it falls back to the providers instead.
func TestLocateNeverReturnsSelf(t *testing.T) {
	fab := cluster.NewLive(4)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 0, func(ctx *cluster.Ctx) {
		if _, _, ok := co.Locate(ctx, 7); ok {
			t.Error("Locate returned the requester as its own peer")
		}
	})
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		peer, release, ok := co.Locate(ctx, 7)
		if !ok || peer != 0 {
			t.Errorf("Locate = (%d, %v), want node 0", peer, ok)
		}
		if ok {
			release()
		}
	})
}

// TestAnnounceDeduplicates: the same (member, chunk) pair announced
// twice — e.g. by a guest read racing a commit's gap fill — is recorded
// once.
func TestAnnounceDeduplicates(t *testing.T) {
	fab := cluster.NewLive(4)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
	runOn(fab, 0, func(ctx *cluster.Ctx) {
		co.Announce(ctx, []blob.ChunkKey{7, 8})
		co.Announce(ctx, []blob.ChunkKey{8, 9})
	})
	st := co.Stats()
	if st.Announced != 3 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 3 announced and 1 duplicate", st)
	}
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		for _, key := range []blob.ChunkKey{7, 8, 9} {
			peer, release, ok := co.Locate(ctx, key)
			if !ok || peer != 0 {
				t.Errorf("Locate(%d) = (%d, %v), want node 0", key, peer, ok)
				continue
			}
			release()
		}
	})
}

// TestAnnounceIgnoresNonMembersAndSparseChunks.
func TestAnnounceIgnoresNonMembersAndSparseChunks(t *testing.T) {
	fab := cluster.NewLive(4)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1})
	runOn(fab, 2, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) }) // not a member
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{0}) }) // sparse
	if st := co.Stats(); st.Announced != 0 {
		t.Errorf("announced = %d, want 0", st.Announced)
	}
}

// TestUploadCapShedsToProviders: once every holder's upload slots are
// taken, Locate reports saturation and the caller uses the providers.
func TestUploadCapShedsToProviders(t *testing.T) {
	fab := cluster.NewLive(4)
	cfg := DefaultConfig()
	cfg.MaxUploads = 2
	_, co := newCohort(t, fab, cfg, []cluster.NodeID{0, 1, 2})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		var releases []func()
		for i := 0; i < cfg.MaxUploads; i++ {
			_, release, ok := co.Locate(ctx, 7)
			if !ok {
				t.Fatalf("Locate %d refused below the cap", i)
			}
			releases = append(releases, release)
		}
		if _, _, ok := co.Locate(ctx, 7); ok {
			t.Error("Locate handed out an upload slot beyond MaxUploads")
		}
		if st := co.Stats(); st.Saturated != 1 {
			t.Errorf("saturated = %d, want 1", st.Saturated)
		}
		for _, release := range releases {
			release()
		}
		if _, release, ok := co.Locate(ctx, 7); !ok {
			t.Error("Locate refused after slots were released")
		} else {
			release()
		}
	})
}

// TestLocatePrefersLeastLoadedHolder.
func TestLocatePrefersLeastLoadedHolder(t *testing.T) {
	fab := cluster.NewLive(5)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2, 3})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 1, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 2, func(ctx *cluster.Ctx) {
		// First pick ties at load 0: the first announcer wins.
		p1, r1, _ := co.Locate(ctx, 7)
		// Second pick must move to the idle holder.
		p2, r2, _ := co.Locate(ctx, 7)
		if p1 != 0 || p2 != 1 {
			t.Errorf("picks = %d, %d; want 0 then 1", p1, p2)
		}
		r1()
		r2()
	})
}

// TestRetractRemovesHolder: a retracted chunk is no longer served by
// the retracting member.
func TestRetractRemovesHolder(t *testing.T) {
	fab := cluster.NewLive(4)
	_, co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
	runOn(fab, 0, func(ctx *cluster.Ctx) {
		co.Announce(ctx, []blob.ChunkKey{7})
		co.Retract(ctx, []blob.ChunkKey{7})
	})
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		if _, _, ok := co.Locate(ctx, 7); ok {
			t.Error("Locate served a retracted chunk")
		}
	})
	if st := co.Stats(); st.Retracted != 1 {
		t.Errorf("retracted = %d, want 1", st.Retracted)
	}
	// Re-announcing after retraction works.
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		if _, release, ok := co.Locate(ctx, 7); !ok {
			t.Error("Locate missed a re-announced chunk")
		} else {
			release()
		}
	})
}

// TestRegisterIsIdempotentAndIncremental.
func TestRegisterIsIdempotentAndIncremental(t *testing.T) {
	fab := cluster.NewLive(6)
	reg := NewRegistry(5, DefaultConfig())
	fab.Run(func(ctx *cluster.Ctx) {
		a := reg.Register(ctx, 1, []cluster.NodeID{0, 1})
		b := reg.Register(ctx, 1, []cluster.NodeID{1, 2})
		if a != b {
			t.Error("Register created two cohorts for one image")
		}
		if got := len(a.Members()); got != 3 {
			t.Errorf("members = %d, want 3", got)
		}
		if reg.Cohort(1) != a {
			t.Error("Cohort lookup mismatch")
		}
		if reg.Cohort(2) != nil {
			t.Error("Cohort invented an unregistered image")
		}
	})
	// The tracker itself is never enrolled as a member.
	fab.Run(func(ctx *cluster.Ctx) {
		co := reg.Register(ctx, 1, []cluster.NodeID{5})
		for _, m := range co.Members() {
			if m == 5 {
				t.Error("tracker enrolled as a cohort member")
			}
		}
	})
}

// TestCohortRegistryRace hammers one cohort from many concurrent
// activities on the live fabric — announce, locate, retract and stats
// all interleaving — so `go test -race` exercises the registry's
// locking.
func TestCohortRegistryRace(t *testing.T) {
	const members = 8
	fab := cluster.NewLive(members + 1)
	nodes := make([]cluster.NodeID, members)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
	}
	reg := NewRegistry(members, DefaultConfig())
	var co *Cohort
	fab.Run(func(ctx *cluster.Ctx) { co = reg.Register(ctx, 1, nodes) })

	var wg sync.WaitGroup
	fab.Run(func(ctx *cluster.Ctx) {
		for n := 0; n < members; n++ {
			n := n
			wg.Add(1)
			ctx.Go("member", cluster.NodeID(n), func(cc *cluster.Ctx) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					key := blob.ChunkKey(i%17 + 1)
					co.Announce(cc, []blob.ChunkKey{key, key + 1})
					if peer, release, ok := co.Locate(cc, key); ok {
						if peer == cc.Node() {
							t.Errorf("node %d located itself", peer)
						}
						release()
					}
					if i%5 == 0 {
						co.Retract(cc, []blob.ChunkKey{key})
					}
					_ = co.Stats()
				}
			})
		}
	})
	wg.Wait()
	st := co.Stats()
	if st.Announced == 0 || st.PeerHits == 0 {
		t.Errorf("race test did no work: %+v", st)
	}
}
