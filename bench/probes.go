package main

import (
	"time"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/p2p"
	"blobvfs/internal/sim"
	"blobvfs/internal/sim/flownet"
)

// The probes time calls into each layer's exported functions from
// outside, one layer at a time, so that a change to a layer shows on its
// own number before it shows on a workload. Each figure is a mean over
// the calls of one short run: host nanoseconds per call unless named
// otherwise. The sim, flownet, fabric and p2p probes run on the
// simulator, where those layers do their work in the sim workloads; the
// blob and mirror probes run on the live fabric, so their time is the
// storage code's and not the simulator's.

// runProbes runs every probe and returns the per-layer probe metrics.
func runProbes() map[string]float64 {
	m := make(map[string]float64)
	probeSim(m)
	probeFlownet(m)
	probeFabric(m)
	probeBlob(m)
	probeMirror(m)
	probeP2P(m)
	return m
}

// perCall runs fn and returns host nanoseconds per call for n calls.
func perCall(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func probeSim(m map[string]float64) {
	const events = 200_000
	m["sim.event_ns"] = perCall(events, func() {
		env := sim.New()
		for i := 0; i < events; i++ {
			env.After(float64(i%977), func() {})
		}
		env.Run()
	})

	const sleeps = 50_000 // per process
	m["sim.proc_switch_ns"] = perCall(2*sleeps, func() {
		env := sim.New()
		for k := 0; k < 2; k++ {
			env.Go("ping", func(p *sim.Proc) {
				for i := 0; i < sleeps; i++ {
					p.Sleep(1)
				}
			})
		}
		env.Run()
	})

	const users, uses = 64, 500
	m["sim.pspool_use_ns"] = perCall(users*uses, func() {
		env := sim.New()
		pool := sim.NewPSPool(env, "disk", 55e6)
		for k := 0; k < users; k++ {
			env.Go("user", func(p *sim.Proc) {
				for i := 0; i < uses; i++ {
					pool.Use(p, float64(64*kib+k))
				}
			})
		}
		env.Run()
	})
}

// transferNs returns host ns per blocking Transfer of 1 MB on its own
// link pair (or on `path`, if the background names one) while `active`
// long background flows stay in the network: one start and one finish
// event, each of which makes the network account for every active flow.
func transferNs(active int, background func(n *flownet.Net, i int) []*flownet.Link, path func() []*flownet.Link) float64 {
	const transfers = 200
	env := sim.New()
	net := flownet.New(env)
	for i := 0; i < active; i++ {
		net.Start(1e15, background(net, i)...) // outlives the probe
	}
	own := []*flownet.Link{net.NewLink("up", 117.5e6), net.NewLink("down", 117.5e6)}
	if path != nil {
		own = path()
	}
	env.Go("sender", func(p *sim.Proc) {
		for k := 0; k < transfers; k++ {
			net.Transfer(p, 1e6, own...)
		}
	})
	// Long enough for the sender at any share of a link, far too short
	// for a background flow to finish.
	return perCall(transfers, func() { env.RunUntil(1e5) })
}

func probeFlownet(m map[string]float64) {
	disjoint := func(n *flownet.Net, i int) []*flownet.Link {
		return []*flownet.Link{n.NewLink("up", 117.5e6), n.NewLink("down", 117.5e6)}
	}
	m["flownet.flow_ns_10"] = transferNs(10, disjoint, nil)
	m["flownet.flow_ns_1k"] = transferNs(1000, disjoint, nil)
	m["flownet.flow_ns_10k"] = transferNs(10_000, disjoint, nil)

	// 32 uplinks × 32 downlinks with a flow on every pair but one: a
	// single component, which the sender's pair completes.
	const side = 32
	var up, down []*flownet.Link
	m["flownet.flow_ns_shared_1k"] = transferNs(side*side-1, func(n *flownet.Net, i int) []*flownet.Link {
		if i == 0 {
			for k := 0; k < side; k++ {
				up = append(up, n.NewLink("up", 117.5e6))
				down = append(down, n.NewLink("down", 117.5e6))
			}
		}
		return []*flownet.Link{up[i/side], down[i%side]}
	}, func() []*flownet.Link { return []*flownet.Link{up[side-1], down[side-1]} })
}

func probeFabric(m map[string]float64) {
	const calls = 20_000
	fab := cluster.NewSim(cluster.DefaultConfig(2))
	m["fabric.rpc_ns"] = perCall(calls, func() {
		fab.Run(func(ctx *cluster.Ctx) {
			for i := 0; i < calls; i++ {
				ctx.RPC(1, 64, 256*kib) // a chunk fetch: small request, one chunk back
			}
		})
	})
	m["fabric.rpc_model_s"] = fab.Now() / calls
	m["fabric.disk_write_ns"] = perCall(calls, func() {
		fab.Run(func(ctx *cluster.Ctx) {
			for i := 0; i < calls; i++ {
				ctx.DiskWrite(0, 256*kib)
			}
		})
	})
}

// probeBlob works on a 2 GiB synthetic image (8192 chunks, a 14-level
// tree) spread over 8 providers of a live fabric.
func probeBlob(m map[string]float64) {
	fab := cluster.NewLive(9)
	repo, err := blobvfs.Open(fab, blobvfs.WithProviders(nodeRange(0, 8)...), blobvfs.WithManager(8))
	if err != nil {
		panic(err)
	}
	sys := repo.System()
	fab.Run(func(ctx *cluster.Ctx) {
		base, err := repo.CreateSynthetic(ctx, "base", 2*gib)
		if err != nil {
			panic(err)
		}
		id, v := base.Image, base.Version

		const cold = 20
		gets0 := sys.Meta.Gets.Load()
		var c *blob.Client
		m["blob.descent_cold_ns"] = perCall(cold, func() {
			for i := 0; i < cold; i++ {
				c = blob.NewClient(sys) // empty node and extent caches
				if err := c.PrefetchExtents(ctx, id, v); err != nil {
					panic(err)
				}
			}
		})
		m["blob.descent_cold_gets"] = float64(sys.Meta.Gets.Load()-gets0) / cold

		const warm = 2000
		m["blob.descent_warm_ns"] = perCall(warm, func() {
			for i := 0; i < warm; i++ {
				if _, err := c.FetchChunks(ctx, id, v, int64(i), int64(i)); err != nil {
					panic(err)
				}
			}
		})

		const commits, dirty = 50, 64
		rng := sim.NewRNG(1)
		m["blob.write_chunks_ns"] = perCall(commits, func() {
			for i := 0; i < commits; i++ {
				writes := make([]blob.ChunkWrite, dirty)
				for k, ci := range rng.Perm(8192)[:dirty] {
					writes[k] = blob.ChunkWrite{Index: int64(ci), Payload: blob.SyntheticPayload(256*kib, uint64(i))}
				}
				if v, err = c.WriteChunks(ctx, id, v, writes); err != nil {
					panic(err)
				}
			}
		})

		// 51 live versions sharing most of their trees; nothing to free.
		const cycles = 10
		m["blob.gc_mark_ns"] = perCall(cycles, func() {
			for i := 0; i < cycles; i++ {
				if _, err := repo.GC(ctx); err != nil {
					panic(err)
				}
			}
		})
	})
}

// probeMirror drives façade disks over a 16 MiB real image on a live
// fabric, chunk by chunk: 64 first reads (misses), 64 re-reads (hits),
// 64 small writes, one commit; a fresh disk on each of 8 nodes.
func probeMirror(m map[string]float64) {
	const nodes, size, chunk = 8, 16 * mib, 256 * kib
	fab := cluster.NewLive(nodes)
	repo, err := blobvfs.Open(fab)
	if err != nil {
		panic(err)
	}
	var miss, hit, write, commit time.Duration
	var committed int64
	buf, page := make([]byte, chunk), randomBytes(3, 4*kib)
	fab.Run(func(ctx *cluster.Ctx) {
		base, err := repo.Create(ctx, "base", randomBytes(2, size))
		if err != nil {
			panic(err)
		}
		for n := 0; n < nodes; n++ {
			ctx.Wait(ctx.Go("disk", cluster.NodeID(n), func(cc *cluster.Ctx) {
				d, err := repo.OpenDisk(cc, cc.Node(), base)
				if err != nil {
					panic(err)
				}
				for _, total := range []*time.Duration{&miss, &hit} {
					t0 := time.Now()
					for off := int64(0); off < size; off += chunk {
						if _, err := d.ReadAt(cc, buf, off); err != nil {
							panic(err)
						}
					}
					*total += time.Since(t0)
				}
				t0 := time.Now()
				for off := int64(0); off < size; off += chunk {
					if _, err := d.WriteAt(cc, page, off+chunk/2); err != nil {
						panic(err)
					}
				}
				write += time.Since(t0)
				t0 = time.Now()
				if _, err := repo.Snapshot(cc, d, true); err != nil {
					panic(err)
				}
				commit += time.Since(t0)
				committed += d.Stats().CommittedChunks
				d.Close(cc)
			}))
		}
	})
	calls := float64(nodes * size / chunk)
	m["mirror.read_miss_ns"] = float64(miss.Nanoseconds()) / calls
	m["mirror.read_hit_ns"] = float64(hit.Nanoseconds()) / calls
	m["mirror.write_ns"] = float64(write.Nanoseconds()) / calls
	m["mirror.commit_ns_per_chunk"] = ratio(float64(commit.Nanoseconds()), float64(committed))
}

// probeP2P times the tracker on the sim fabric, where the crowd
// workloads use it: members of a cohort announce, then locate what
// another member announced. The digest push to the whole cohort every 64
// announcements is inside the announce figure, which is why it grows
// with the cohort.
func probeP2P(m map[string]float64) {
	for _, c := range []struct {
		suffix                    string
		members, callers, perNode int
	}{{"256", 256, 256, 4}, {"4k", 4096, 512, 1}} {
		fab := cluster.NewSim(cluster.DefaultConfig(c.members + 1))
		tracker := cluster.NodeID(c.members)
		reg := p2p.NewRegistry(tracker, p2p.DefaultConfig())
		var co *p2p.Cohort
		fab.Run(func(ctx *cluster.Ctx) { co = reg.Register(ctx, 1, nodeRange(0, c.members)) })
		each := func(fn func(cc *cluster.Ctx, member int)) func() {
			return func() {
				fab.Run(func(ctx *cluster.Ctx) {
					for i := 0; i < c.callers; i++ {
						ctx.Go("member", cluster.NodeID(i), func(cc *cluster.Ctx) { fn(cc, i) })
					}
				})
			}
		}
		calls := c.callers * c.perNode
		m["p2p.announce_ns_"+c.suffix] = perCall(calls, each(func(cc *cluster.Ctx, member int) {
			for k := 0; k < c.perNode; k++ {
				co.Announce(cc, []blob.ChunkKey{blob.ChunkKey(1 + (member+k)%c.callers)})
			}
		}))
		m["p2p.locate_ns_"+c.suffix] = perCall(calls, each(func(cc *cluster.Ctx, member int) {
			for k := 0; k < c.perNode; k++ {
				// A key some other member announced.
				if _, release, ok := co.Locate(cc, blob.ChunkKey(1+(member+c.callers/2+k)%c.callers)); ok {
					release()
				}
			}
		}))
	}
}
