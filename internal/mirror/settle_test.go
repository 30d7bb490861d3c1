package mirror

import (
	"errors"
	"slices"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/p2p"
)

// TestFetchSettlesWhatItPutOnRecord: with a cohort, a fetch is on record
// at the tracker while it runs and siblings may be parked on it, so the
// blob client settles it the moment the chunk's read ends, whatever the
// mirror then does with the payload. Node 0 leads: its fetch of chunk 0
// starts first and goes to the providers. Node 1 follows half a
// millisecond later and is attached to that fetch in flight. However the
// leader's fetch ends, the follower's read must end too (the sim fabric
// panics on a deadlock), with the chunk from the leader when the leader
// got it and from the providers when not, and nothing may stay on
// record. Each landing makes its member a holder; afterwards the leader
// holds the chunk's key exactly when its copy of the chunk is that key's
// content, clean.
func TestFetchSettlesWhatItPutOnRecord(t *testing.T) {
	const cs = 256 << 10
	for _, tc := range []struct {
		name string
		// lead is what node 0 does with its image.
		lead func(t *testing.T, cc *cluster.Ctx, im *Image, sys *blob.System)
		// peerHits, announced, retracted and providerReads are the
		// cohort's and the providers' counts afterwards; failed says the
		// follower's read must fail, and leaderHolds that a Locate of the
		// chunk from the follower finds the leader at the end.
		peerHits, announced, retracted, providerReads int64
		failed, leaderHolds                           bool
	}{
		{name: "landed", peerHits: 1, announced: 2, providerReads: 1, leaderHolds: true,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, _ *blob.System) {
				if err := im.Read(cc, 0, cs); err != nil {
					t.Error(err)
				}
			}},
		{name: "dirty", peerHits: 1, announced: 2, retracted: 1, providerReads: 1,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, _ *blob.System) {
				// A write first: the chunk is fetched around it and the
				// leader withdrawn as its holder, but the payload in the
				// fetch buffer is the published one.
				if err := im.Write(cc, 0, 100); err != nil {
					t.Error(err)
				}
				if err := im.Read(cc, 0, cs); err != nil {
					t.Error(err)
				}
			}},
		{name: "gap fill", peerHits: 1, announced: 2, retracted: 1, providerReads: 1,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, _ *blob.System) {
				if err := im.Write(cc, 0, 100); err != nil {
					t.Error(err)
				}
				// Not adjacent: the chunk is fetched whole to keep one
				// mirrored region.
				if err := im.Write(cc, 1000, 100); err != nil {
					t.Error(err)
				}
			}},
		// Both of the leader's fetches land it as the holder of the chunk's
		// old key, and each is withdrawn at its merge: the first merges
		// around dirty bytes, the second finds the chunk merged, and
		// committed by then or still dirty. The follower holds the old key,
		// the leader the one it committed.
		{name: "lost merge race", peerHits: 1, announced: 4, retracted: 2, providerReads: 2,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, _ *blob.System) {
				// A commit's gap fill and a guest read fetch a partly dirty
				// chunk at once; the second to come back finds it merged.
				if err := im.Write(cc, 0, 100); err != nil {
					t.Error(err)
				}
				commit := cc.Go("commit", 0, func(c1 *cluster.Ctx) {
					if _, err := im.Commit(c1); err != nil {
						t.Error(err)
					}
				})
				if err := im.Read(cc, 0, cs); err != nil {
					t.Error(err)
				}
				cc.Wait(commit)
				if st := im.Stats(); st.DuplicateFetches != 1 || st.RemoteChunkFetches != 1 {
					t.Errorf("stats = %+v, want the chunk fetched once and one duplicate", st)
				}
			}},
		// After ErrNoReplica the leader consults the cohort once more, and
		// finds its own follower fetching the chunk. Attached to it, the two
		// would wait for each other: the pick must stop at the leader's own
		// entry.
		{name: "error", failed: true,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, sys *blob.System) {
				lv := cluster.NewLiveness(5)
				sys.Providers.SetLiveness(lv)
				lv.Kill(cc, 2)
				lv.Kill(cc, 3)
				if err := im.Read(cc, 0, cs); !errors.Is(err, blob.ErrNoReplica) {
					t.Errorf("read with every provider dead = %v, want ErrNoReplica", err)
				}
			}},
		// The leader reads two chunks, and the second's only provider is
		// dead. The first lands on each of the three tries, from the
		// providers and then from the follower, and each try fails: the
		// mirror keeps neither chunk, so each landing is withdrawn.
		{name: "partial batch", peerHits: 3, announced: 4, retracted: 3, providerReads: 1,
			lead: func(t *testing.T, cc *cluster.Ctx, im *Image, sys *blob.System) {
				lv := cluster.NewLiveness(5)
				sys.Providers.SetLiveness(lv)
				lv.Kill(cc, 2) // chunk 1's; chunk 0 is on node 3
				if err := im.Read(cc, 0, 2*cs); !errors.Is(err, blob.ErrNoReplica) {
					t.Errorf("read with chunk 1's provider dead = %v, want ErrNoReplica", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := cluster.NewSim(cluster.DefaultConfig(5))
			sys := blob.NewSystem([]cluster.NodeID{2, 3}, 4, 1)
			reg := p2p.NewRegistry(4, p2p.DefaultConfig())
			var co *p2p.Cohort
			var st p2p.Stats
			fab.Run(func(ctx *cluster.Ctx) {
				c := blob.NewClient(sys)
				id, err := c.Create(ctx, 4*cs, cs)
				if err != nil {
					t.Fatal(err)
				}
				v, err := c.WriteFull(ctx, id, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				fetched, err := c.FetchChunks(ctx, id, v, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				if locs := sys.Providers.LiveLocations(fetched[1].Key); !slices.Equal(locs, []cluster.NodeID{2}) {
					t.Fatalf("chunk 1 is on %v, want node 2 alone", locs)
				}
				co = reg.Register(ctx, id, []cluster.NodeID{0, 1})
				sys.Providers.Reads.Store(0)
				member := func(node cluster.NodeID, start float64, do func(cc *cluster.Ctx, im *Image)) cluster.Task {
					return ctx.Go("member", node, func(cc *cluster.Ctx) {
						mod := NewModule(node, blob.NewClient(sys))
						mod.SetSharer(co)
						im, err := mod.Open(cc, id, v, false)
						if err != nil {
							t.Error(err)
							return
						}
						cc.Sleep(start - cc.Now())
						do(cc, im)
						im.Close(cc)
					})
				}
				ctx.WaitAll([]cluster.Task{
					member(0, 1, func(cc *cluster.Ctx, im *Image) { tc.lead(t, cc, im, sys) }),
					member(1, 1.0005, func(cc *cluster.Ctx, im *Image) {
						if err := im.Read(cc, 0, cs); (err != nil) != tc.failed {
							t.Errorf("follower's read = %v, want failure %v", err, tc.failed)
						}
					}),
				})
				st = co.Stats()
				ctx.Wait(ctx.Go("locate", 1, func(cc *cluster.Ctx) {
					if peer, _, ok := co.Locate(cc, fetched[0].Key); (ok && peer == 0) != tc.leaderHolds {
						t.Errorf("Locate from the follower = (%d, %v), want the leader %v", peer, ok, tc.leaderHolds)
					}
				}))
			})
			if n := co.InFlight(); n != 0 {
				t.Errorf("%d fetches still on record", n)
			}
			if st.PeerHits != tc.peerHits || st.Announced != tc.announced || st.Retracted != tc.retracted || st.Duplicates != 0 {
				t.Errorf("PeerHits = %d, Announced = %d, Retracted = %d, want %d, %d and %d with no duplicate (stats %+v)",
					st.PeerHits, st.Announced, st.Retracted, tc.peerHits, tc.announced, tc.retracted, st)
			}
			if got := sys.Providers.Reads.Load(); got != tc.providerReads {
				t.Errorf("provider reads = %d, want %d", got, tc.providerReads)
			}
		})
	}
}
