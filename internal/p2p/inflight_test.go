package p2p

import (
	"fmt"
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// quiescent fails the test if the cohort still has state that only a
// running fetch may own (a fetch on record, a wait record), or if a
// member has promised more copies of a chunk than fanOut.
func quiescent(t *testing.T, co *Cohort) {
	t.Helper()
	if n := co.InFlight(); n != 0 {
		t.Errorf("%d fetches still on record", n)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for key, ck := range co.chunks {
		if fl := ck.fl; len(fl.fetches) != 0 || fl.head != 0 || fl.next != 0 {
			t.Errorf("in-flight record of chunk %d survives: %+v", key, fl)
		}
	}
	overGivenLocked(t, co)
}

// overGivenLocked fails the test if any (member, chunk) has promised more
// than fanOut copies.
func overGivenLocked(t *testing.T, co *Cohort) {
	t.Helper()
	for key, ck := range co.chunks {
		for m, n := range ck.given {
			if n > fanOut {
				t.Errorf("member %d has given %d copies of chunk %d, cap %d", m, n, key, fanOut)
			}
		}
	}
}

// fetchFirstLocked fails the test if req has just been handed peer, a
// published holder of key, while a live entry on the chunk's in-flight
// record, before req's own earliest entry there and at peer's tier or
// nearer, had a copy left to give: within a tier a fetch in flight comes
// first.
func fetchFirstLocked(t *testing.T, co *Cohort, req cluster.NodeID, key blob.ChunkKey, peer cluster.NodeID) {
	t.Helper()
	ck := co.chunks[key]
	stop, own := co.earliestLocked(req, key)
	if !own {
		stop = len(ck.fl.fetches)
	}
	tier := co.reg.topo.Tier(req, peer)
	for _, f := range ck.fl.fetches[:stop] {
		if f.node != noNode && !ck.spent(f.node) && co.reg.lv.Alive(f.node) && co.reg.topo.Tier(req, f.node) <= tier {
			t.Errorf("node %d was handed holder %d of chunk %d while node %d's fetch of it, as near and in flight, had a copy left", req, peer, key, f.node)
		}
	}
}

// TestInFlightInterleavings drives seeded random interleavings of
// everything that touches the in-flight record: members fetching
// batches of chunks in parallel, each chunk settled with Landed the
// moment its read ends like blob.Client's getChunk does (well, or badly
// after a failed provider read and a second look at the cohort), the
// batch announced afterwards like mirror.fetchChunks does; bare Locates
// that never go on record, retractions, member deaths and revivals, and
// reclamations. Every run must end (the sim fabric panics on a deadlock,
// the live one hangs into the test timeout), leave no in-flight state
// behind, and never have a member promise more than fanOut copies of a
// chunk. On the sim fabric, where nothing can change between a call's
// return and the check, a waiter is never handed a parent that did not
// say ok or is dead, and the books balance: at the end every (member,
// chunk) count equals the copies read from that member since its record
// was last dropped, so a promise that was not kept has been handed back.
// A copy read in hand comes from a live parent that said ok in that very
// instant, and no landing hands out more than fanOut of them; a bare
// Locate cannot say in hand at all.
func TestInFlightInterleavings(t *testing.T) {
	const (
		members = 12
		rounds  = 8
	)
	// sentAway counts the waits that ended without the chunk, over all
	// runs: each is a promised copy that was not delivered.
	var sentAway atomic.Int64
	// inHand counts the copies read from a parent's memory over the sim
	// runs.
	var inHand atomic.Int64
	fabrics := []struct {
		name  string
		seeds int
		make  func() cluster.Fabric
	}{
		{"sim", 40, func() cluster.Fabric { return cluster.NewSim(cluster.DefaultConfig(members + 1)) }},
		{"live", 10, func() cluster.Fabric { return cluster.NewLive(members + 1) }},
	}
	for _, f := range fabrics {
		for seed := 0; seed < f.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/%d", f.name, seed), func(t *testing.T) {
				keys := 4 + seed%8 // few chunks: much waiting; many: much overlap between batches
				fab := f.make()
				exact := f.name == "sim"
				reg := NewRegistry(0, DefaultConfig())
				lv := cluster.NewLiveness(members + 1)
				reg.SetLiveness(lv)
				lv.OnChange(reg.NodeChanged)
				var co *Cohort
				var waited atomic.Int64
				// saidOK[key][m] is when member m last said Landed(key, true).
				// A waiter resumes in that very instant of virtual time.
				// read[key][m] counts the copies read from m since the
				// tracker last dropped m's record of the chunk.
				var mu sync.Mutex
				saidOK := make(map[blob.ChunkKey]map[cluster.NodeID]float64)
				read := make(map[blob.ChunkKey]map[cluster.NodeID]uint8)
				say := func(cc *cluster.Ctx, key blob.ChunkKey) {
					mu.Lock()
					if saidOK[key] == nil {
						saidOK[key] = make(map[cluster.NodeID]float64)
					}
					saidOK[key][cc.Node()] = cc.Now()
					mu.Unlock()
				}
				// check is called right after Locate or Fetching returned peer,
				// a published holder or a parent that has just said ok, and
				// stands for the read from it.
				// landing names one Landed(ok): the member, the chunk, the instant.
				type landing struct {
					peer cluster.NodeID
					key  blob.ChunkKey
					at   float64
				}
				fromHand := make(map[landing]int)
				// handed is check's counterpart for a copy Fetching said is
				// in hand.
				handed := func(cc *cluster.Ctx, key blob.ChunkKey, peer cluster.NodeID) {
					if !exact {
						return
					}
					inHand.Add(1)
					mu.Lock()
					at, said := saidOK[key][peer]
					l := landing{peer, key, at}
					fromHand[l]++
					n := fromHand[l]
					mu.Unlock()
					if !said || at != cc.Now() || !lv.Alive(peer) {
						t.Errorf("t=%v: node %d reads chunk %d in hand from peer %d, which has not just landed it alive", cc.Now(), cc.Node(), key, peer)
					}
					if n > fanOut {
						t.Errorf("t=%v: peer %d handed chunk %d from memory %d times in one landing, cap %d", cc.Now(), peer, key, n, fanOut)
					}
				}
				check := func(cc *cluster.Ctx, key blob.ChunkKey, peer cluster.NodeID) {
					co.mu.Lock()
					defer co.mu.Unlock()
					overGivenLocked(t, co)
					if !exact {
						return
					}
					mu.Lock()
					at, said := saidOK[key][peer]
					if read[key] == nil {
						read[key] = make(map[cluster.NodeID]uint8)
					}
					read[key][peer]++
					mu.Unlock()
					if !lv.Alive(peer) {
						t.Errorf("t=%v: node %d was handed dead peer %d for chunk %d", cc.Now(), cc.Node(), peer, key)
					}
					if said && at == cc.Now() {
						return // a parent released by its Landed(ok)
					}
					if !co.chunks[key].held[peer] {
						t.Errorf("t=%v: node %d was handed peer %d, which neither holds chunk %d nor has just said ok", cc.Now(), cc.Node(), peer, key)
					}
					fetchFirstLocked(t, co, cc.Node(), key, peer)
				}
				// retract is Retract, and the test's books follow the tracker's:
				// a pair it knows loses its count with its record.
				retract := func(cc *cluster.Ctx, key blob.ChunkKey) {
					co.mu.Lock()
					ck := co.chunks[key]
					known := ck != nil && ck.held[cc.Node()]
					co.mu.Unlock()
					if known {
						mu.Lock()
						delete(read[key], cc.Node())
						mu.Unlock()
					}
					co.Retract(cc, []blob.ChunkKey{key})
				}
				fab.Run(func(ctx *cluster.Ctx) {
					nodes := nodeRange(1, members)
					co = reg.Register(ctx, 1, nodes)
					root := sim.NewRNG(int64(1000 + seed))
					var tasks []cluster.Task
					for _, m := range nodes {
						rng := root.Fork()
						tasks = append(tasks, ctx.Go("fetcher", m, func(cc *cluster.Ctx) {
							for r := 0; r < rounds; r++ {
								// Rounds start close together and a batch's chunks
								// in a different order on every member, so that two
								// members each get to a chunk first that the other
								// wants too.
								cc.Sleep(rng.Exp(0.0005))
								batch := make([]blob.ChunkKey, 0, 4)
								for _, k := range rng.Perm(keys)[:1+rng.Intn(4)] {
									batch = append(batch, blob.ChunkKey(k+1))
								}
								landed := make([]bool, len(batch))
								var one []cluster.Task
								for i, key := range batch {
									d, lag, fails := rng.Uniform(0.001, 0.01), rng.Uniform(0, 0.0003), rng.Intn(5) == 0
									one = append(one, cc.Go("get-chunk", m, func(c1 *cluster.Ctx) {
										c1.Sleep(lag)
										before := c1.Now()
										peer, inHand, ok := co.Fetching(c1, key)
										if c1.Now() > before+0.001 {
											waited.Add(1)
											if !ok {
												sentAway.Add(1)
											}
										}
										if inHand && !ok {
											t.Errorf("node %d was told chunk %d is in hand and sent to the providers", c1.Node(), key)
										}
										if ok {
											check(c1, key, peer)
											if inHand {
												handed(c1, key, peer)
											}
											c1.Sleep(d / 4)
										} else if c1.Sleep(d); fails {
											// The providers had no replica: the cohort is
											// asked once more, from within the fetch.
											if peer, _, ok = co.Locate(c1, key); ok {
												check(c1, key, peer)
											}
										} else {
											ok = true
										}
										if landed[i] = ok; ok {
											say(c1, key)
										}
										co.Landed(c1, key, landed[i])
									}))
								}
								cc.WaitAll(one)
								var announce []blob.ChunkKey
								for i, key := range batch {
									if landed[i] && rng.Intn(4) != 0 {
										announce = append(announce, key)
									}
								}
								co.Announce(cc, announce)
								if len(announce) > 0 && rng.Intn(3) == 0 {
									cc.Sleep(rng.Exp(0.002))
									retract(cc, announce[0])
								}
							}
						}))
						rng2 := root.Fork()
						tasks = append(tasks, ctx.Go("locator", m, func(cc *cluster.Ctx) {
							for r := 0; r < rounds; r++ {
								cc.Sleep(rng2.Exp(0.01))
								key := blob.ChunkKey(1 + rng2.Intn(keys))
								if peer, _, ok := co.Locate(cc, key); ok {
									check(cc, key, peer)
								}
							}
						}))
					}
					rng := root.Fork()
					tasks = append(tasks, ctx.Go("faults", 0, func(cc *cluster.Ctx) {
						for r := 0; r < rounds; r++ {
							cc.Sleep(rng.Exp(0.01))
							victim := nodes[rng.Intn(members)]
							lv.Kill(cc, victim)
							mu.Lock()
							for _, by := range read {
								delete(by, victim)
							}
							mu.Unlock()
							cc.Sleep(rng.Exp(0.005))
							lv.Revive(cc, victim)
						}
					}))
					rng3 := root.Fork()
					tasks = append(tasks, ctx.Go("gc", 0, func(cc *cluster.Ctx) {
						for r := 0; r < rounds; r++ {
							cc.Sleep(rng3.Exp(0.02))
							freed := []blob.ChunkKey{blob.ChunkKey(1 + rng3.Intn(keys)), blob.ChunkKey(1 + rng3.Intn(keys))}
							reg.ChunksReclaimed(cc, freed)
							mu.Lock()
							for _, key := range freed {
								delete(read, key)
							}
							mu.Unlock()
						}
					}))
					ctx.WaitAll(tasks)
				})
				quiescent(t, co)
				if !exact {
					return
				}
				for key, ck := range co.chunks {
					for m, n := range ck.given {
						if got := read[key][cluster.NodeID(m)]; n != got {
							t.Errorf("member %d has %d copies of chunk %d on its count, %d were read from it", m, n, key, got)
						}
					}
				}
				for key, by := range read {
					for m, n := range by {
						if co.chunks[key] == nil && n > 0 {
							t.Errorf("%d copies of chunk %d were read from member %d, and the tracker has no record of the chunk", n, key, m)
						}
					}
				}
				if st := co.Stats(); waited.Load() == 0 || st.PeerHits == 0 || st.DeadDropped == 0 || st.Reclaimed == 0 || st.Retracted == 0 {
					t.Errorf("the run exercised too little: %d waits, stats %+v", waited.Load(), st)
				}
			})
		}
	}
	if sentAway.Load() == 0 {
		t.Error("no waiter was ever sent away: no promised copy had to be handed back")
	}
	if inHand.Load() == 0 {
		t.Error("no copy was ever read in hand")
	}
}

// TestHerdReadsTheProvidersOnce: 64 members ask for the same chunk in
// the same instant. The first goes to the providers; everybody else is
// attached below a member whose fetch is in flight, so one provider read
// seeds the whole cohort, no member passes the chunk on more than fanOut
// times, and the tree that forms is as shallow as a binary tree of 64
// can be. Every child waited on its parent's fetch and reads the chunk
// from the parent's memory.
func TestHerdReadsTheProvidersOnce(t *testing.T) {
	const members = 64
	fab := cluster.NewSim(cluster.DefaultConfig(members + 1))
	reg := NewRegistry(0, DefaultConfig())
	var co *Cohort
	providerReads, deepest, inHand := 0, 0, 0
	children := make(map[cluster.NodeID]int)
	depth := make(map[cluster.NodeID]int) // hops from the providers
	fab.Run(func(ctx *cluster.Ctx) {
		co = reg.Register(ctx, 1, nodeRange(1, members))
		var tasks []cluster.Task
		for _, m := range co.order {
			tasks = append(tasks, ctx.Go("boot", m, func(cc *cluster.Ctx) {
				peer, hand, ok := co.Fetching(cc, 7)
				if hand {
					inHand++
				}
				if !ok {
					providerReads++
					depth[m] = 1
					cc.Sleep(0.012) // a provider's disk and the transfer
				} else {
					children[peer]++
					depth[m] = depth[peer] + 1
					cc.Sleep(0.003)
				}
				deepest = max(deepest, depth[m])
				co.Landed(cc, 7, true)
				co.Announce(cc, []blob.ChunkKey{7})
			}))
		}
		ctx.WaitAll(tasks)
	})
	if providerReads != 1 {
		t.Errorf("%d of %d members read the providers, want 1", providerReads, members)
	}
	if inHand != members-1 {
		t.Errorf("%d of %d children read the chunk in hand, want all", inHand, members-1)
	}
	for m, n := range children {
		if n > fanOut {
			t.Errorf("member %d passed the chunk on %d times, cap %d", m, n, fanOut)
		}
	}
	if limit := bits.Len(members-1) + 1; deepest > limit { // ⌈log₂ n⌉ + 1
		t.Errorf("the deepest member is %d hops from the providers, want at most %d", deepest, limit)
	}
	if st := co.Stats(); st.PeerHits != members-1 || st.Announced != members {
		t.Errorf("stats %+v, want %d peer hits and %d announced", st, members-1, members)
	}
	quiescent(t, co)
}

// TestChildAttachesToNearestFetcher: with a topology the pick is
// locality-first over holders and fetchers alike. Racks hold 4 nodes,
// zones 2 racks. For chunk 7, node 5 (zone 0, rack 1) starts fetching
// first; node 1 (rack 0) is attached to it, within the zone; node 2 must
// be attached to its rack-mate 1 although 5 is the earlier fetcher and
// has free slots; node 8 (zone 1) waits for nobody, a fetch in another
// zone being no better than the providers. For chunk 9, node 8 is a
// published holder with free slots, yet node 2 is attached to its
// rack-mate 1 while that one still reads the chunk from 8. A child reads
// its parent's payload in hand; node 1, picking the holder 8, does not.
func TestChildAttachesToNearestFetcher(t *testing.T) {
	topo := cluster.Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 4, RackBandwidth: 1e9, ZoneBandwidth: 1e9}
	cfg := cluster.DefaultConfig(16)
	cfg.Topology = topo
	fab := cluster.NewSim(cfg)
	reg := NewRegistry(15, DefaultConfig())
	reg.SetTopology(topo)
	const provider = cluster.NodeID(-1)
	from := make(map[cluster.NodeID]cluster.NodeID)
	hand := make(map[cluster.NodeID]bool)
	var co *Cohort
	fab.Run(func(ctx *cluster.Ctx) {
		co = reg.Register(ctx, 1, []cluster.NodeID{1, 2, 5, 8})
		fetch := func(node cluster.NodeID, key blob.ChunkKey, start float64) cluster.Task {
			return ctx.Go("fetch", node, func(cc *cluster.Ctx) {
				cc.Sleep(start)
				p, inHand, ok := co.Fetching(cc, key)
				if !ok {
					p = provider
				}
				from[node], hand[node] = p, inHand
				cc.Sleep(0.05)
				co.Landed(cc, key, true)
				co.Announce(cc, []blob.ChunkKey{key})
			})
		}
		ctx.WaitAll([]cluster.Task{fetch(5, 7, 0), fetch(1, 7, 0.01), fetch(2, 7, 0.02), fetch(8, 7, 0.03)})
		if want := map[cluster.NodeID]cluster.NodeID{5: provider, 1: 5, 2: 1, 8: provider}; !maps.Equal(from, want) {
			t.Errorf("chunk 7 came from %v, want %v", from, want)
		}
		if want := map[cluster.NodeID]bool{5: false, 1: true, 2: true, 8: false}; !maps.Equal(hand, want) {
			t.Errorf("chunk 7 in hand by node: %v, want %v", hand, want)
		}
		on(ctx, 8, func(cc *cluster.Ctx) { co.Announce(cc, []blob.ChunkKey{9}) })
		ctx.WaitAll([]cluster.Task{fetch(1, 9, 0), fetch(2, 9, 0.01)})
		if from[1] != 8 || from[2] != 1 {
			t.Errorf("chunk 9 came to node 1 from %d and to node 2 from %d, want 8 and 1", from[1], from[2])
		}
		if hand[1] || !hand[2] {
			t.Errorf("chunk 9 in hand: node 1 %v, node 2 %v; want false (a holder's disk) and true", hand[1], hand[2])
		}
	})
	quiescent(t, co)
}

// TestLateChildWaitsOnFetchInFlight: within a tier a fetch in flight beats
// a published holder, whose copy costs a seek on its disk. Node 0 holds
// chunk 7 with both copies left while node 1's fetch of it is in flight:
// nodes 2 and 3 are attached below 1 and read the payload in hand. Once 1
// has given its fanOut copies and nothing is in flight, node 4 is sent to
// holder 0. With a topology the tier still comes first: a same-rack holder
// beats a cross-rack fetcher, and nobody waits on a fetch in another zone,
// not even in place of a holder there, nor in place of the providers.
func TestLateChildWaitsOnFetchInFlight(t *testing.T) {
	const provider = cluster.NodeID(-1)
	type asked struct {
		node cluster.NodeID
		key  blob.ChunkKey
	}
	type told struct {
		peer   cluster.NodeID
		inHand bool
		at     float64
	}
	// deploy registers members on a sim fabric whose last node is the
	// tracker and runs fn; fetch starts node's fetch of key at start, holds
	// it in flight for hold, then lands and announces it, and got records
	// what Fetching told the node, and when.
	deploy := func(cfg cluster.Config, members []cluster.NodeID, fn func(ctx *cluster.Ctx, co *Cohort, fetch func(node cluster.NodeID, key blob.ChunkKey, start, hold float64) cluster.Task)) map[asked]told {
		reg := NewRegistry(cluster.NodeID(cfg.Nodes-1), DefaultConfig())
		reg.SetTopology(cfg.Topology)
		got := make(map[asked]told)
		var co *Cohort
		cluster.NewSim(cfg).Run(func(ctx *cluster.Ctx) {
			co = reg.Register(ctx, 1, members)
			fn(ctx, co, func(node cluster.NodeID, key blob.ChunkKey, start, hold float64) cluster.Task {
				return ctx.Go("fetch", node, func(cc *cluster.Ctx) {
					cc.Sleep(start)
					p, inHand, ok := co.Fetching(cc, key)
					if !ok {
						p = provider
					}
					got[asked{node, key}] = told{p, inHand, cc.Now()}
					cc.Sleep(hold)
					co.Landed(cc, key, true)
					co.Announce(cc, []blob.ChunkKey{key})
				})
			})
		})
		quiescent(t, co)
		return got
	}
	announce := func(ctx *cluster.Ctx, co *Cohort, node cluster.NodeID, key blob.ChunkKey, start float64) cluster.Task {
		return ctx.Go("announce", node, func(cc *cluster.Ctx) {
			cc.Sleep(start)
			co.Announce(cc, []blob.ChunkKey{key})
		})
	}
	expect := func(got map[asked]told, want map[asked]cluster.NodeID, inHand map[asked]bool) {
		t.Helper()
		for a, peer := range want {
			if g := got[a]; g.peer != peer || g.inHand != inHand[a] {
				t.Errorf("node %d was told chunk %d is at %d (in hand %v), want %d (in hand %v)", a.node, a.key, g.peer, g.inHand, peer, inHand[a])
			}
		}
	}

	got := deploy(cluster.DefaultConfig(6), nodeRange(0, 5), func(ctx *cluster.Ctx, co *Cohort, fetch func(cluster.NodeID, blob.ChunkKey, float64, float64) cluster.Task) {
		ctx.WaitAll([]cluster.Task{fetch(1, 7, 0, 0.05), announce(ctx, co, 0, 7, 0.005), fetch(2, 7, 0.01, 0.001), fetch(3, 7, 0.02, 0.001)})
		ctx.WaitAll([]cluster.Task{fetch(4, 7, 0, 0.001)})
	})
	expect(got, map[asked]cluster.NodeID{{1, 7}: provider, {2, 7}: 1, {3, 7}: 1, {4, 7}: 0},
		map[asked]bool{{2, 7}: true, {3, 7}: true})

	// Racks of 4 nodes, 2 racks a zone: 1 and 2 share rack 0, 5 is in
	// rack 1 of zone 0, 8 and 12 are in zone 1.
	cfg := cluster.DefaultConfig(16)
	cfg.Topology = cluster.Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 4, RackBandwidth: 1e9, ZoneBandwidth: 1e9}
	got = deploy(cfg, []cluster.NodeID{1, 2, 5, 8, 12}, func(ctx *cluster.Ctx, co *Cohort, fetch func(cluster.NodeID, blob.ChunkKey, float64, float64) cluster.Task) {
		ctx.WaitAll([]cluster.Task{
			fetch(5, 9, 0, 0.05), announce(ctx, co, 1, 9, 0.005), fetch(2, 9, 0.01, 0.001),
			fetch(8, 11, 0, 0.05), announce(ctx, co, 12, 11, 0.005), fetch(2, 11, 0.01, 0.001),
			fetch(8, 13, 0, 0.05), fetch(1, 13, 0.01, 0.001),
		})
	})
	expect(got, map[asked]cluster.NodeID{{2, 9}: 1, {2, 11}: 12, {1, 13}: provider}, nil)
	if at := got[asked{1, 13}].at; at > 0.05 {
		t.Errorf("node 1 was sent to the providers for chunk 13 at t=%v, after node 8's fetch in another zone had landed", at)
	}
}

// TestOverlappingBatchesDoNotWaitInACycle: nodes 1 and 2 fetch the same
// two chunks in opposite order, each being first at one of them, and each
// is attached to the other's fetch in flight. A chunk is settled when its
// own read ends, not with the batch it was asked for in, so both waits
// end: each node reads one chunk from the providers and one from the
// other.
func TestOverlappingBatchesDoNotWaitInACycle(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(3))
	reg := NewRegistry(0, DefaultConfig())
	var co *Cohort
	hits := make(map[cluster.NodeID]int)
	fab.Run(func(ctx *cluster.Ctx) {
		co = reg.Register(ctx, 1, []cluster.NodeID{1, 2})
		batch := func(node cluster.NodeID, start float64, first, second blob.ChunkKey) cluster.Task {
			return ctx.Go("batch", node, func(cc *cluster.Ctx) {
				cc.Sleep(start)
				get := func(key blob.ChunkKey, lag float64) cluster.Task {
					return cc.Go("get-chunk", node, func(c1 *cluster.Ctx) {
						c1.Sleep(lag)
						if _, _, ok := co.Fetching(c1, key); ok {
							hits[node]++
						} else {
							c1.Sleep(0.05)
						}
						co.Landed(c1, key, true)
					})
				}
				cc.WaitAll([]cluster.Task{get(first, 0), get(second, 0.01)})
				co.Announce(cc, []blob.ChunkKey{first, second})
			})
		}
		ctx.WaitAll([]cluster.Task{batch(1, 0, 7, 8), batch(2, 0.001, 8, 7)})
	})
	if hits[1] != 1 || hits[2] != 1 {
		t.Errorf("peer hits by node: %v, want one each", hits)
	}
	quiescent(t, co)
}

// TestRetractKeepsTheChildrenOfAFetchInFlight: node 3 is attached below
// node 1's fetch in flight; node 1 announces the chunk (a second fetch of
// it has merged) and retracts it before the first has ended. The copy
// promised to node 3 stays on node 1's count, so that the count is right
// whether the fetch lands (one copy given) or fails (the promise handed
// back: none given, and nothing below zero).
func TestRetractKeepsTheChildrenOfAFetchInFlight(t *testing.T) {
	const key = blob.ChunkKey(7)
	for _, lands := range []bool{true, false} {
		simCohort(t, 3, func(ctx *cluster.Ctx, _ *Registry, co *Cohort, _ *cluster.Liveness) {
			fetch := ctx.Go("fetch", 1, func(cc *cluster.Ctx) {
				co.Fetching(cc, key)
				cc.Sleep(0.01)
				on(cc, 1, func(c1 *cluster.Ctx) {
					co.Announce(c1, []blob.ChunkKey{key})
					co.Retract(c1, []blob.ChunkKey{key})
				})
				if got := co.chunks[key].given[1]; got != 1 {
					t.Errorf("lands=%v: after Retract node 1 has %d copies on its count, want the 1 promised below its fetch", lands, got)
				}
				co.Landed(cc, key, lands)
			})
			child := ctx.Go("child", 3, func(cc *cluster.Ctx) {
				cc.Sleep(0.005)
				if peer, _, ok := co.Fetching(cc, key); ok != lands || (ok && peer != 1) {
					t.Errorf("lands=%v: node 3 got (%d, %v)", lands, peer, ok)
				}
				co.Landed(cc, key, true)
			})
			ctx.WaitAll([]cluster.Task{fetch, child})
			if got, want := co.chunks[key].given[1], map[bool]uint8{true: 1, false: 0}[lands]; got != want {
				t.Errorf("lands=%v: node 1 ends with %d copies on its count, want %d", lands, got, want)
			}
			if st := co.Stats(); st.Retracted != 1 {
				t.Errorf("lands=%v: %d retracted, want 1", lands, st.Retracted)
			}
			quiescent(t, co)
		})
	}
}
