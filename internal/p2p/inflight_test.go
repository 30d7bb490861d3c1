package p2p

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// quiescent fails the test if the cohort still has state that only a
// running fetch may own: a fetch on record, a wait record, a taken
// upload slot.
func quiescent(t *testing.T, co *Cohort) {
	t.Helper()
	if n := co.InFlight(); n != 0 {
		t.Errorf("%d fetches still on record", n)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for key, fl := range co.flights {
		if len(fl.fetches) != 0 || fl.head != 0 || fl.next != 0 {
			t.Errorf("in-flight record of chunk %d survives: %+v", key, *fl)
		}
	}
	for m, st := range co.state {
		if st.uploads != 0 {
			t.Errorf("member %d still has %d upload slots taken", m, st.uploads)
		}
	}
}

// TestInFlightInterleavings drives seeded random interleavings of
// everything that touches the in-flight record: members fetching
// batches of chunks in parallel, each chunk settled with Landed the
// moment its read ends like blob.Client's getChunk does (well, or badly
// after a failed provider read and a second look at the cohort), the
// batch announced afterwards like mirror.fetchChunks does; bare Locates that never go on record, retractions, member deaths
// and revivals, and reclamations. Every run must end (the sim fabric
// panics on a deadlock, the live one hangs into the test timeout), leave
// no in-flight state behind, and on the sim fabric, where nothing can
// change between a call's return and the check, never hand a waiter a
// parent that did not say ok or is dead, nor more children to a member
// than it has upload slots.
func TestInFlightInterleavings(t *testing.T) {
	const (
		members = 12
		rounds  = 8
	)
	cfg := Config{AnnounceBytes: 24, MaxUploads: 2}
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
				reg := NewRegistry(0, cfg)
				lv := cluster.NewLiveness(members + 1)
				reg.SetLiveness(lv)
				lv.OnChange(reg.NodeChanged)
				var co *Cohort
				var waited atomic.Int64
				// saidOK[key][m] is when member m last said Landed(key, true).
				// A waiter resumes in that very instant of virtual time.
				var mu sync.Mutex
				saidOK := make(map[blob.ChunkKey]map[cluster.NodeID]float64)
				say := func(cc *cluster.Ctx, key blob.ChunkKey) {
					mu.Lock()
					if saidOK[key] == nil {
						saidOK[key] = make(map[cluster.NodeID]float64)
					}
					saidOK[key][cc.Node()] = cc.Now()
					mu.Unlock()
				}
				// check is called right after Locate or Fetching returned peer:
				// a published holder, or a parent that has just said ok.
				check := func(cc *cluster.Ctx, key blob.ChunkKey, peer cluster.NodeID) {
					if !exact {
						return
					}
					mu.Lock()
					at, said := saidOK[key][peer]
					mu.Unlock()
					if !lv.Alive(peer) {
						t.Errorf("t=%v: node %d was handed dead peer %d for chunk %d", cc.Now(), cc.Node(), peer, key)
					}
					co.mu.Lock()
					defer co.mu.Unlock()
					if !co.held[key][peer] && !(said && at == cc.Now()) {
						t.Errorf("t=%v: node %d was handed peer %d, which neither holds chunk %d nor has just said ok", cc.Now(), cc.Node(), peer, key)
					}
					if up := co.state[peer].uploads; up > cfg.MaxUploads {
						t.Errorf("member %d serves %d at once, cap %d", peer, up, cfg.MaxUploads)
					}
				}
				fab.Run(func(ctx *cluster.Ctx) {
					nodes := make([]cluster.NodeID, members)
					for i := range nodes {
						nodes[i] = cluster.NodeID(i + 1)
					}
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
										peer, release, ok := co.Fetching(c1, key)
										if c1.Now() > before+0.001 {
											waited.Add(1)
										}
										if ok {
											check(c1, key, peer)
											c1.Sleep(d / 4)
											release()
										} else if c1.Sleep(d); fails {
											// The providers had no replica: the cohort is
											// asked once more, from within the fetch.
											if peer, release, ok = co.Locate(c1, key); ok {
												check(c1, key, peer)
												release()
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
									co.Retract(cc, announce[:1])
								}
							}
						}))
						rng2 := root.Fork()
						tasks = append(tasks, ctx.Go("locator", m, func(cc *cluster.Ctx) {
							for r := 0; r < rounds; r++ {
								cc.Sleep(rng2.Exp(0.01))
								key := blob.ChunkKey(1 + rng2.Intn(keys))
								if peer, release, ok := co.Locate(cc, key); ok {
									check(cc, key, peer)
									release()
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
							cc.Sleep(rng.Exp(0.005))
							lv.Revive(cc, victim)
						}
					}))
					rng3 := root.Fork()
					tasks = append(tasks, ctx.Go("gc", 0, func(cc *cluster.Ctx) {
						for r := 0; r < rounds; r++ {
							cc.Sleep(rng3.Exp(0.02))
							reg.ChunksReclaimed(cc, []blob.ChunkKey{blob.ChunkKey(1 + rng3.Intn(keys)), blob.ChunkKey(1 + rng3.Intn(keys))})
						}
					}))
					ctx.WaitAll(tasks)
				})
				quiescent(t, co)
				if st := co.Stats(); exact && (waited.Load() == 0 || st.PeerHits == 0 || st.DeadDropped == 0 || st.Reclaimed == 0 || st.Retracted == 0) {
					t.Errorf("the run exercised too little: %d waits, stats %+v", waited.Load(), st)
				}
			})
		}
	}
}

// TestHerdReadsTheProvidersOnce: 64 members ask for the same chunk in
// the same instant. The first goes to the providers; everybody else is
// attached below a member whose fetch is in flight, so one provider read
// seeds the whole cohort, and no member ever has more than MaxUploads
// children, waiting or reading.
func TestHerdReadsTheProvidersOnce(t *testing.T) {
	const members = 64
	cfg := DefaultConfig()
	fab := cluster.NewSim(cluster.DefaultConfig(members + 1))
	reg := NewRegistry(0, cfg)
	var co *Cohort
	var mu sync.Mutex
	providerReads, maxChildren := 0, 0
	reading := make(map[cluster.NodeID]int)
	fab.Run(func(ctx *cluster.Ctx) {
		nodes := make([]cluster.NodeID, members)
		for i := range nodes {
			nodes[i] = cluster.NodeID(i + 1)
		}
		co = reg.Register(ctx, 1, nodes)
		var tasks []cluster.Task
		for _, m := range nodes {
			tasks = append(tasks, ctx.Go("boot", m, func(cc *cluster.Ctx) {
				peer, release, ok := co.Fetching(cc, 7)
				if !ok {
					mu.Lock()
					providerReads++
					mu.Unlock()
					cc.Sleep(0.012) // a provider's disk and the transfer
				} else {
					mu.Lock()
					reading[peer]++
					co.mu.Lock()
					maxChildren = max(maxChildren, reading[peer], co.state[peer].uploads)
					co.mu.Unlock()
					mu.Unlock()
					cc.Sleep(0.003)
					mu.Lock()
					reading[peer]--
					mu.Unlock()
					release()
				}
				co.Landed(cc, 7, true)
				co.Announce(cc, []blob.ChunkKey{7})
			}))
		}
		ctx.WaitAll(tasks)
	})
	if providerReads != 1 {
		t.Errorf("%d of %d members read the providers, want 1", providerReads, members)
	}
	if maxChildren > cfg.MaxUploads {
		t.Errorf("a member had %d children at once, cap %d", maxChildren, cfg.MaxUploads)
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
// rack-mate 1 while that one still reads the chunk from 8.
func TestChildAttachesToNearestFetcher(t *testing.T) {
	topo := cluster.Topology{Zones: 2, RacksPerZone: 2, NodesPerRack: 4, RackBandwidth: 1e9, ZoneBandwidth: 1e9}
	cfg := cluster.DefaultConfig(16)
	cfg.Topology = topo
	fab := cluster.NewSim(cfg)
	reg := NewRegistry(15, DefaultConfig())
	reg.SetTopology(topo)
	const provider = cluster.NodeID(-1)
	from := make(map[cluster.NodeID]cluster.NodeID)
	var co *Cohort
	fab.Run(func(ctx *cluster.Ctx) {
		co = reg.Register(ctx, 1, []cluster.NodeID{1, 2, 5, 8})
		fetch := func(node cluster.NodeID, key blob.ChunkKey, start float64) cluster.Task {
			return ctx.Go("fetch", node, func(cc *cluster.Ctx) {
				cc.Sleep(start)
				p, release, ok := co.Fetching(cc, key)
				if !ok {
					p, release = provider, func() {}
				}
				from[node] = p
				cc.Sleep(0.05)
				release()
				co.Landed(cc, key, true)
				co.Announce(cc, []blob.ChunkKey{key})
			})
		}
		ctx.WaitAll([]cluster.Task{fetch(5, 7, 0), fetch(1, 7, 0.01), fetch(2, 7, 0.02), fetch(8, 7, 0.03)})
		if want := map[cluster.NodeID]cluster.NodeID{5: provider, 1: 5, 2: 1, 8: provider}; !maps.Equal(from, want) {
			t.Errorf("chunk 7 came from %v, want %v", from, want)
		}
		on(ctx, 8, func(cc *cluster.Ctx) { co.Announce(cc, []blob.ChunkKey{9}) })
		ctx.WaitAll([]cluster.Task{fetch(1, 9, 0), fetch(2, 9, 0.01)})
		if from[1] != 8 || from[2] != 1 {
			t.Errorf("chunk 9 came to node 1 from %d and to node 2 from %d, want 8 and 1", from[1], from[2])
		}
	})
	quiescent(t, co)
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
						if _, release, ok := co.Fetching(c1, key); ok {
							hits[node]++
							release()
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
