package p2p

import (
	"slices"
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

// nodeRange returns the n consecutive node IDs starting at first.
func nodeRange(first, n int) []cluster.NodeID {
	ids := make([]cluster.NodeID, n)
	for i := range ids {
		ids[i] = cluster.NodeID(first + i)
	}
	return ids
}

func newCohort(t *testing.T, fab *cluster.Live, cfg Config, members []cluster.NodeID) *Cohort {
	t.Helper()
	co := NewRegistry(cluster.NodeID(fab.Nodes()-1), cfg)
	fab.Run(func(ctx *cluster.Ctx) { co.Register(ctx, 1, members) })
	return co
}

// TestLocateFallsBackToProvidersWhenNoPeer: a chunk nobody announced
// must miss, sending the caller to the providers.
func TestLocateFallsBackToProvidersWhenNoPeer(t *testing.T) {
	fab := cluster.NewLive(4)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
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
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 0, func(ctx *cluster.Ctx) {
		if _, _, ok := co.Locate(ctx, 7); ok {
			t.Error("Locate returned the requester as its own peer")
		}
	})
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		if peer, _, ok := co.Locate(ctx, 7); !ok || peer != 0 {
			t.Errorf("Locate = (%d, %v), want node 0", peer, ok)
		}
	})
}

// TestAnnounceDeduplicates: the same (member, chunk) pair announced
// twice — e.g. by a guest read racing a commit's gap fill — is recorded
// once.
func TestAnnounceDeduplicates(t *testing.T) {
	fab := cluster.NewLive(4)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
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
			if peer, _, ok := co.Locate(ctx, key); !ok || peer != 0 {
				t.Errorf("Locate(%d) = (%d, %v), want node 0", key, peer, ok)
			}
		}
	})
}

// TestAnnounceIgnoresNonMembersAndSparseChunks.
func TestAnnounceIgnoresNonMembersAndSparseChunks(t *testing.T) {
	fab := cluster.NewLive(4)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1})
	runOn(fab, 2, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) }) // not a member
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{0}) }) // sparse
	if st := co.Stats(); st.Announced != 0 {
		t.Errorf("announced = %d, want 0", st.Announced)
	}
}

// TestRetractIgnoresNonMembers: a node outside the cohort holds nothing,
// so its Retract withdraws nothing and charges nothing.
func TestRetractIgnoresNonMembers(t *testing.T) {
	fab := cluster.NewLive(4)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	traffic := fab.NetTraffic()
	runOn(fab, 2, func(ctx *cluster.Ctx) { co.Retract(ctx, []blob.ChunkKey{7}) })
	if st := co.Stats(); st.Retracted != 0 || fab.NetTraffic() != traffic {
		t.Errorf("non-member Retract: %d retracted, %d bytes; want none", st.Retracted, fab.NetTraffic()-traffic)
	}
	runOn(fab, 1, func(ctx *cluster.Ctx) {
		if peer, _, ok := co.Locate(ctx, 7); !ok || peer != 0 {
			t.Errorf("Locate = (%d, %v), want node 0", peer, ok)
		}
	})
}

// TestUploadCapShedsToProviders: a lone holder with no fetch in flight
// serves two askers and sends the third to the providers, counted as
// Saturated; the two it served serve the next four, and the one after
// those goes to the providers again.
func TestUploadCapShedsToProviders(t *testing.T) {
	fab := cluster.NewLive(9)
	co := newCohort(t, fab, DefaultConfig(), nodeRange(0, 8))
	announce := func(n cluster.NodeID) {
		runOn(fab, n, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	}
	ask := func(n cluster.NodeID) (peer cluster.NodeID, ok bool) {
		runOn(fab, n, func(ctx *cluster.Ctx) { peer, _, ok = co.Locate(ctx, 7) })
		return peer, ok
	}
	announce(0)
	for _, n := range []cluster.NodeID{1, 2} {
		if peer, ok := ask(n); !ok || peer != 0 {
			t.Errorf("node %d: Locate = (%d, %v), want the lone holder 0", n, peer, ok)
		}
	}
	if peer, ok := ask(3); ok {
		t.Errorf("node 3 was handed a third copy from %d", peer)
	}
	if st := co.Stats(); st.Saturated != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 saturated and no miss", st)
	}
	announce(1)
	announce(2)
	served := make(map[cluster.NodeID]int)
	for n := cluster.NodeID(3); n < 7; n++ {
		peer, ok := ask(n)
		if !ok {
			t.Fatalf("node %d found no copy although 1 and 2 have two each to give", n)
		}
		served[peer]++
	}
	if served[1] != 2 || served[2] != 2 {
		t.Errorf("copies served by holder: %v, want two each by 1 and 2", served)
	}
	if peer, ok := ask(7); ok {
		t.Errorf("node 7 was handed a seventh copy from %d", peer)
	}
	if st := co.Stats(); st.Saturated != 2 || st.PeerHits != 6 {
		t.Errorf("stats = %+v, want 2 saturated and 6 peer hits", st)
	}
}

// TestLocatePrefersLeastLoadedHolder: a holder that has given no copy
// comes before one that has given one.
func TestLocatePrefersLeastLoadedHolder(t *testing.T) {
	fab := cluster.NewLive(5)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2, 3})
	runOn(fab, 0, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 1, func(ctx *cluster.Ctx) { co.Announce(ctx, []blob.ChunkKey{7}) })
	runOn(fab, 2, func(ctx *cluster.Ctx) {
		// Nobody has given a copy: the first announcer wins. Then the
		// other, and only then the first again.
		var picks [4]cluster.NodeID
		for i := range picks {
			picks[i], _, _ = co.Locate(ctx, 7)
		}
		if picks != [4]cluster.NodeID{0, 1, 0, 1} {
			t.Errorf("picks = %v; want 0 1 0 1", picks)
		}
	})
}

// TestRetractRemovesHolder: a retracted chunk is no longer served by
// the retracting member.
func TestRetractRemovesHolder(t *testing.T) {
	fab := cluster.NewLive(4)
	co := newCohort(t, fab, DefaultConfig(), []cluster.NodeID{0, 1, 2})
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
		if _, _, ok := co.Locate(ctx, 7); !ok {
			t.Error("Locate missed a re-announced chunk")
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
		if got := len(a.order); got != 3 {
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
		for _, m := range co.order {
			if m == 5 {
				t.Error("tracker enrolled as a cohort member")
			}
		}
	})
}

// TestRegisterRefusesASecondImage: a registry holds one cohort. A
// Register for another image returns nil, charges nothing, and leaves
// the registered cohort's members and counters as they were.
func TestRegisterRefusesASecondImage(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(6))
	reg := NewRegistry(5, DefaultConfig())
	fab.Run(func(ctx *cluster.Ctx) {
		co := reg.Register(ctx, 1, []cluster.NodeID{0, 1})
		ctx.Wait(ctx.Go("member", 0, func(cc *cluster.Ctx) { co.Announce(cc, []blob.ChunkKey{7}) }))
		stats, traffic, now := co.Stats(), fab.NetTraffic(), ctx.Now()
		if other := reg.Register(ctx, 2, []cluster.NodeID{2, 3}); other != nil {
			t.Fatal("Register made a second cohort")
		}
		if fab.NetTraffic() != traffic || ctx.Now() != now {
			t.Errorf("refused Register charged %d bytes and %g s", fab.NetTraffic()-traffic, ctx.Now()-now)
		}
		if !slices.Equal(co.order, []cluster.NodeID{0, 1}) || co.Stats() != stats {
			t.Errorf("refused Register changed the cohort: members %v, stats %+v, want [0 1] and %+v", co.order, co.Stats(), stats)
		}
		if reg.Cohort(1) != co || reg.Cohort(2) != nil {
			t.Error("Cohort lookup does not answer for the registered image alone")
		}
	})
}

// TestCohortBeforeRegister: until the first Register names its image, a
// cohort has no members. A member's death and a reclamation find nothing
// to drop and charge nothing, and Cohort answers for no image. Registered
// afterwards, it answers Announce and Locate as a fresh cohort does, at
// the same cost.
func TestCohortBeforeRegister(t *testing.T) {
	type outcome struct {
		peer    cluster.NodeID
		found   bool
		stats   Stats
		traffic int64
		now     float64
	}
	deploy := func(early bool) outcome {
		fab := cluster.NewSim(cluster.DefaultConfig(4))
		co := NewRegistry(3, DefaultConfig())
		lv := cluster.NewLiveness(4)
		co.SetLiveness(lv)
		lv.OnChange(co.NodeChanged)
		var out outcome
		fab.Run(func(ctx *cluster.Ctx) {
			if early {
				lv.Kill(ctx, 1)
				lv.Revive(ctx, 1)
				co.ChunksReclaimed(ctx, []blob.ChunkKey{7})
				if st := co.Stats(); st != (Stats{}) || fab.NetTraffic() != 0 || ctx.Now() != 0 {
					t.Errorf("before Register: stats %+v, %d bytes, %g s; want nothing", st, fab.NetTraffic(), ctx.Now())
				}
				if co.Cohort(1) != nil {
					t.Error("Cohort answered for an image before Register named one")
				}
			}
			if co.Register(ctx, 1, []cluster.NodeID{0, 1, 2}) != co || co.Cohort(1) != co {
				t.Error("Register did not name the cohort's image")
			}
			on(ctx, 0, func(cc *cluster.Ctx) { co.Announce(cc, []blob.ChunkKey{7}) })
			on(ctx, 1, func(cc *cluster.Ctx) { out.peer, _, out.found = co.Locate(cc, 7) })
			out.now = ctx.Now()
		})
		out.stats, out.traffic = co.Stats(), fab.NetTraffic()
		return out
	}
	fresh, late := deploy(false), deploy(true)
	if !fresh.found || fresh.peer != 0 {
		t.Fatalf("fresh cohort: Locate = (%d, %v), want node 0", fresh.peer, fresh.found)
	}
	if late != fresh {
		t.Errorf("registered after a death and a reclamation: %+v, want %+v as on a fresh cohort", late, fresh)
	}
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
					if peer, _, ok := co.Locate(cc, key); ok && peer == cc.Node() {
						t.Errorf("node %d located itself", peer)
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
