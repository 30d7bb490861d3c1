package p2p

import (
	"slices"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// TestLocateNeverSelectsDeadPeer: randomized member deaths against an
// announcing cohort. The tracker must retract every location record a
// dead member held, Locate must never return a dead uploader, and a
// dead member's own announcements must be ignored.
func TestLocateNeverSelectsDeadPeer(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := sim.NewRNG(int64(9000 + trial))
		nMembers := 4 + rng.Intn(8)
		nKeys := 8 + rng.Intn(24)
		fab := cluster.NewSim(cluster.DefaultConfig(nMembers + 1))
		tracker := cluster.NodeID(0)
		members := make([]cluster.NodeID, nMembers)
		for i := range members {
			members[i] = cluster.NodeID(i + 1)
		}
		reg := NewRegistry(tracker, DefaultConfig())
		lv := cluster.NewLiveness(nMembers + 1)
		reg.SetLiveness(lv)
		lv.OnChange(reg.NodeChanged)

		fab.Run(func(ctx *cluster.Ctx) {
			co := reg.Register(ctx, 1, members)
			keys := make([]blob.ChunkKey, nKeys)
			for i := range keys {
				keys[i] = blob.ChunkKey(i + 1)
			}
			// Every member announces a random subset.
			for _, m := range members {
				var mine []blob.ChunkKey
				for _, k := range keys {
					if rng.Intn(2) == 0 {
						mine = append(mine, k)
					}
				}
				m := m
				ctx.Wait(ctx.Go("announce", m, func(cc *cluster.Ctx) {
					co.Announce(cc, mine)
				}))
			}
			// Kill members one at a time, asserting after each death
			// that no Locate from any surviving member returns a dead
			// peer.
			perm := rng.Perm(nMembers)
			for _, vi := range perm[:nMembers/2] {
				victim := members[vi]
				lv.Kill(ctx, victim)
				for _, m := range members {
					if !lv.Alive(m) {
						continue
					}
					m := m
					ctx.Wait(ctx.Go("locate", m, func(cc *cluster.Ctx) {
						for _, k := range keys {
							if peer, _, ok := co.Locate(cc, k); ok && !lv.Alive(peer) {
								t.Errorf("Locate(%d) from %d returned dead peer %d", k, m, peer)
							}
						}
					}))
				}
				// A dead member's announcements must be dropped.
				st := co.Stats()
				if st.DeadDropped == 0 {
					t.Fatal("death retracted no location records")
				}
				// ... and its re-announcements ignored.
				victimKeys := keys[:2]
				ctx.Wait(ctx.Go("dead-announce", victim, func(cc *cluster.Ctx) {
					co.Announce(cc, victimKeys)
				}))
				for _, k := range victimKeys {
					for _, h := range holdersOf(co, k) {
						if h == victim {
							t.Fatalf("dead member %d re-registered as holder of %d", victim, k)
						}
					}
				}
			}
			// Revived members start clean and may announce again.
			revived := members[perm[0]]
			lv.Revive(ctx, revived)
			ctx.Wait(ctx.Go("re-announce", revived, func(cc *cluster.Ctx) {
				co.Announce(cc, keys[:1])
			}))
			found := false
			for _, h := range holdersOf(co, keys[0]) {
				if h == revived {
					found = true
				}
			}
			if !found {
				t.Fatalf("revived member %d could not re-announce", revived)
			}
		})
	}
}

// holdersOf returns the published holders of key.
func holdersOf(co *Cohort, key blob.ChunkKey) []cluster.NodeID {
	co.mu.Lock()
	defer co.mu.Unlock()
	if ck := co.chunks[key]; ck != nil {
		return ck.holders
	}
	return nil
}

// simCohort registers members 1..n of a sim fabric (node 0 is the
// tracker) with a liveness registry attached, and runs fn inside the
// simulation.
func simCohort(t *testing.T, n int, fn func(ctx *cluster.Ctx, co *Cohort, lv *cluster.Liveness)) {
	t.Helper()
	fab := cluster.NewSim(cluster.DefaultConfig(n + 1))
	co := NewRegistry(0, DefaultConfig())
	lv := cluster.NewLiveness(n + 1)
	co.SetLiveness(lv)
	lv.OnChange(co.NodeChanged)
	fab.Run(func(ctx *cluster.Ctx) {
		fn(ctx, co.Register(ctx, 1, nodeRange(1, n)), lv)
	})
}

// on runs fn as an activity on node and waits for it.
func on(ctx *cluster.Ctx, node cluster.NodeID, fn func(cc *cluster.Ctx)) {
	ctx.Wait(ctx.Go("test", node, fn))
}

// withdrawals are the three ways a location record leaves the tracker,
// each run from an activity on the holder, node 1. The death is
// followed by a revival, so that what keeps the node from being picked
// afterwards is the dropped record and not pickHolderLocked's liveness check.
var withdrawals = []struct {
	name string
	do   func(cc *cluster.Ctx, co *Cohort, lv *cluster.Liveness, key blob.ChunkKey)
}{
	{"death", func(cc *cluster.Ctx, _ *Cohort, lv *cluster.Liveness, _ blob.ChunkKey) {
		lv.Kill(cc, 1)
		lv.Revive(cc, 1)
	}},
	{"retract", func(cc *cluster.Ctx, co *Cohort, _ *cluster.Liveness, key blob.ChunkKey) {
		co.Retract(cc, []blob.ChunkKey{key})
	}},
	{"reclaim", func(cc *cluster.Ctx, co *Cohort, _ *cluster.Liveness, key blob.ChunkKey) {
		co.ChunksReclaimed(cc, []blob.ChunkKey{key})
	}},
}

// TestLocateAfterWithdrawalNeverReturnsHolder: members keep no location
// state, so a record withdrawn at the tracker — by the holder's death,
// its Retract, or the collector reclaiming the chunk — is gone for
// every Locate issued afterwards, with nothing left to converge.
func TestLocateAfterWithdrawalNeverReturnsHolder(t *testing.T) {
	const key = blob.ChunkKey(7)
	for _, w := range withdrawals {
		t.Run(w.name, func(t *testing.T) {
			simCohort(t, 3, func(ctx *cluster.Ctx, co *Cohort, lv *cluster.Liveness) {
				on(ctx, 1, func(cc *cluster.Ctx) { co.Announce(cc, []blob.ChunkKey{key}) })
				// Member 2 has seen node 1 serve the chunk: the old
				// protocol would have left that in its digest.
				on(ctx, 2, func(cc *cluster.Ctx) {
					if peer, _, ok := co.Locate(cc, key); !ok || peer != 1 {
						t.Fatalf("Locate before withdrawal = (%d, %v), want node 1", peer, ok)
					}
				})
				on(ctx, 1, func(cc *cluster.Ctx) { w.do(cc, co, lv, key) })
				for _, m := range []cluster.NodeID{2, 3} {
					on(ctx, m, func(cc *cluster.Ctx) {
						if peer, _, ok := co.Locate(cc, key); ok {
							t.Errorf("Locate from %d after %s returned withdrawn holder %d", m, w.name, peer)
						}
					})
				}
			})
		})
	}
}

// TestWithdrawalDuringAnnounceStaysUnpublished: a (member, chunk) pair
// withdrawn while its announce RPC is in flight — phase 1 reserved it,
// phase 2 has not run — must not be published when the RPC lands.
func TestWithdrawalDuringAnnounceStaysUnpublished(t *testing.T) {
	const key, other = blob.ChunkKey(7), blob.ChunkKey(8)
	for _, w := range withdrawals {
		t.Run(w.name, func(t *testing.T) {
			simCohort(t, 2, func(ctx *cluster.Ctx, co *Cohort, lv *cluster.Liveness) {
				announce := ctx.Go("announce", 1, func(cc *cluster.Ctx) {
					co.Announce(cc, []blob.ChunkKey{key, other})
				})
				// Half a round trip in: the pair is reserved, not published.
				on(ctx, 1, func(cc *cluster.Ctx) {
					cc.Sleep(cc.Fabric().Config().RTT / 2)
					if ck := co.chunks[key]; !ck.of[1].held || len(ck.holders) != 0 {
						t.Fatalf("mid-RPC: reserved = %v, holders = %v; want reserved and unpublished",
							ck.of[1].held, ck.holders)
					}
					w.do(cc, co, lv, key)
				})
				ctx.Wait(announce)
				on(ctx, 2, func(cc *cluster.Ctx) {
					if peer, _, ok := co.Locate(cc, key); ok {
						t.Errorf("Locate returned %d for a pair withdrawn (%s) mid-announce", peer, w.name)
					}
					// The rest of the batch is published, unless its
					// member died: a death withdraws all it holds.
					if _, _, ok := co.Locate(cc, other); ok == (w.name == "death") {
						t.Errorf("Locate(other) ok = %v after %s", ok, w.name)
					}
				})
			})
		})
	}
}

// TestLandedPublishesWhatIsOnRecord: a Landed(ok) makes a live member
// the chunk's holder, at no cost, unless the member's fetch has left the
// record: its death settled it (the revival does not bring it back), or
// the chunk's reclamation did. A Retract withdraws a record, not a fetch.
// A member that fetched and landed while dead publishes nothing either.
func TestLandedPublishesWhatIsOnRecord(t *testing.T) {
	const key = blob.ChunkKey(7)
	run := func(name string, want bool, fetch func(cc *cluster.Ctx, co *Cohort, lv *cluster.Liveness)) {
		t.Run(name, func(t *testing.T) {
			simCohort(t, 2, func(ctx *cluster.Ctx, co *Cohort, lv *cluster.Liveness) {
				on(ctx, 1, func(cc *cluster.Ctx) {
					fetch(cc, co, lv)
					at := cc.Now()
					co.Landed(cc, key, true)
					if cc.Now() != at {
						t.Errorf("Landed took %v s", cc.Now()-at)
					}
				})
				lv.Revive(ctx, 1)
				if got := slices.Contains(holdersOf(co, key), 1); got != want {
					t.Errorf("node 1 published = %v, want %v", got, want)
				}
				if st, n := co.Stats(), map[bool]int64{true: 1}[want]; st.Announced != n {
					t.Errorf("Announced = %d, want %d", st.Announced, n)
				}
				on(ctx, 2, func(cc *cluster.Ctx) {
					if peer, _, ok := co.Locate(cc, key); ok != want {
						t.Errorf("Locate = (%d, %v), want found %v", peer, ok, want)
					}
				})
			})
		})
	}
	for _, w := range withdrawals {
		run(w.name, w.name == "retract", func(cc *cluster.Ctx, co *Cohort, lv *cluster.Liveness) {
			co.Fetching(cc, key)
			w.do(cc, co, lv, key)
		})
	}
	run("dead throughout", false, func(cc *cluster.Ctx, co *Cohort, lv *cluster.Liveness) {
		lv.Kill(cc, 1)
		co.Fetching(cc, key)
	})
}
