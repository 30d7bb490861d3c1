package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"blobvfs"
	"blobvfs/internal/cluster"
)

// liveState is what live-io keeps from one rep of a process to the
// next: the checker's two image-sized buffers, and the modelled seconds
// the first rep read off the sim fabric's clock.
type liveState struct {
	shadow, got []byte
	completionS float64
	snapshotS   []float64
}

// liveClient is one closed-loop client of the live-io workload and what
// it measured.
type liveClient struct {
	index   int
	nodes   [2]cluster.NodeID
	ink     []byte
	readBuf []byte
	rng     *rand.Rand

	lineage []blobvfs.Snapshot // the snapshot each round committed
	// Host nanoseconds inside the timed calls, and the bytes they moved.
	coldNs, writeNs       int64
	coldBytes, writeBytes int64
	// Seconds per Repo.Snapshot on the host's clock and on the fabric's
	// (0 on the live fabric), and the fabric time the last round ended.
	snapshotS, snapshotModelS []float64
	doneAt                    float64
	mirror                    blobvfs.DiskStats
	err                       error
}

// openLive opens a repository on a fabric of live-io's shape: the live
// fabric, or for a process's first rep the simulated one.
func openLive(w *workload, simulated bool) (cluster.Fabric, *blobvfs.Repo, error) {
	nodes := 2*w.clients + w.providers
	var fab cluster.Fabric = cluster.NewLive(nodes)
	if simulated {
		fab = cluster.NewSim(cluster.DefaultConfig(nodes))
	}
	prov := nodeRange(2*w.clients, w.providers)
	repo, err := blobvfs.Open(fab,
		blobvfs.WithProviders(prov...),
		blobvfs.WithManager(prov[0]),
		blobvfs.WithReplicas(w.replicas),
		blobvfs.WithChunkSize(w.chunkSize))
	return fab, repo, err
}

// round is one client round on one node: open the client's latest
// snapshot with an empty mirror, read it all cold, read it again warm,
// scatter writes over it, snapshot, close.
func (c *liveClient) round(cc *cluster.Ctx, w *workload, repo *blobvfs.Repo, tr *tracer, cur blobvfs.Snapshot, fork bool) (blobvfs.Snapshot, error) {
	root := tr.root(c.index, 0)
	sp := tr.begin("facade.open_disk", c.index, root, 0)
	d, err := repo.OpenDisk(cc, cc.Node(), cur)
	tr.end(sp, 0)
	if err != nil {
		return cur, err
	}
	defer d.Close(cc)
	for pass := 0; pass < 2; pass++ { // cold, then warm
		for off := int64(0); off < w.imageSize; off += w.readLen {
			sp := tr.begin("disk.read", c.index, root, 0)
			t0 := time.Now()
			_, err := d.ReadAt(cc, c.readBuf, off)
			if pass == 0 {
				c.coldNs += time.Since(t0).Nanoseconds()
				c.coldBytes += w.readLen
			}
			tr.end(sp, 0)
			if err != nil {
				return cur, err
			}
		}
	}
	for _, lw := range w.liveWrites(c.rng) {
		sp := tr.begin("disk.write", c.index, root, 0)
		t0 := time.Now()
		_, err := d.WriteAt(cc, c.ink[lw.ink:lw.ink+lw.len], lw.off)
		c.writeNs += time.Since(t0).Nanoseconds()
		tr.end(sp, 0)
		if err != nil {
			return cur, err
		}
		c.writeBytes += lw.len
	}
	sp = tr.begin("facade.snapshot", c.index, root, 0)
	t0, v0 := time.Now(), cc.Now()
	next, err := repo.Snapshot(cc, d, fork)
	dt := time.Since(t0)
	tr.end(sp, 0)
	if err != nil {
		return cur, err
	}
	c.writeNs += dt.Nanoseconds()
	c.snapshotS = append(c.snapshotS, dt.Seconds())
	c.snapshotModelS = append(c.snapshotModelS, cc.Now()-v0)
	c.doneAt = cc.Now()
	addDiskStats(&c.mirror, d.Stats())
	return next, nil
}

// liveRep runs the clients' rounds, ships every lineage to a second
// repository as a full archive plus one delta, byte-compares every
// committed and imported snapshot against a replayed shadow copy, then
// retires all but the latest versions and collects garbage.
//
// The live fabric has no clock, so the first rep of a process runs the
// same calls on the simulated fabric: it warms the process up, is where
// the full byte comparison runs, and gives the modelled seconds that
// every later rep of the process reports. Host values and counts come
// from the later reps, on the live fabric.
func (w *workload) liveRep(seed int64, tr *tracer) (*rep, error) {
	first := w.live == nil
	if first {
		w.live = &liveState{shadow: make([]byte, w.imageSize), got: make([]byte, w.imageSize)}
	}
	runtime.GC()
	t0 := time.Now()
	fab, repo, err := openLive(w, first)
	if err != nil {
		return nil, err
	}
	fab2, repo2, err := openLive(w, first)
	if err != nil {
		return nil, err
	}
	image := randomBytes(seed+seedLiveImage, w.imageSize)
	var base blobvfs.Snapshot
	createT0 := time.Now()
	fab.Run(func(ctx *cluster.Ctx) { base, err = repo.Create(ctx, "base", image) })
	createS := time.Since(createT0).Seconds()
	if err != nil {
		return nil, err
	}
	clients := make([]*liveClient, w.clients)
	for i := range clients {
		clients[i] = &liveClient{
			index:   i,
			nodes:   [2]cluster.NodeID{cluster.NodeID(2 * i), cluster.NodeID(2*i + 1)},
			ink:     randomBytes(seed+seedLiveClient+int64(i), inkSize),
			readBuf: make([]byte, w.readLen),
			rng:     rand.New(rand.NewSource(seed + seedLiveClient + int64(i))),
		}
	}
	var archive bytes.Buffer
	archive.Grow(int(w.imageSize) * (w.rounds + 2) / 2)
	r := &rep{setupS: time.Since(t0).Seconds(), layer: map[string]float64{}}
	r.layer["facade.create_mb_s"] = float64(w.imageSize) / 1e6 / createS
	fab.ResetTraffic()

	// Rounds: the clients run side by side, each round on the other of
	// the client's two nodes so the mirror starts empty.
	runtime.GC()
	began := fab.Now()
	r.host.start()
	fab.Run(func(ctx *cluster.Ctx) {
		for _, c := range clients {
			ctx.Go("client", c.nodes[0], func(cc *cluster.Ctx) {
				cur := base
				for round := 0; round < w.rounds && c.err == nil; round++ {
					cc.Wait(cc.Go("round", c.nodes[round%2], func(rc *cluster.Ctx) {
						cur, c.err = c.round(rc, w, repo, tr, cur, round == 0)
					}))
					c.lineage = append(c.lineage, cur)
				}
			})
		}
	})
	r.layer["live.completion_s"] = time.Since(r.host.t0).Seconds()
	for _, c := range clients {
		if c.err != nil && err == nil {
			err = fmt.Errorf("%s: client %d: %w", w.name, c.index, c.err)
		}
	}

	// Sync: full archive up to the penultimate snapshot, then one delta.
	var exported, imported, exportNs, importNs, deltaBytes, fullBytes int64
	var deduped int
	imports := make([]blobvfs.ImageID, len(clients)) // each lineage's image in the second repository
	ship := func(c *liveClient) error {
		last := c.lineage[len(c.lineage)-1]
		for _, leg := range [][2]blobvfs.Version{{0, last.Version - 1}, {last.Version - 1, last.Version}} {
			archive.Reset()
			var es blobvfs.ExportStats
			var is blobvfs.ImportStats
			sp := tr.begin("facade.export", c.index, tr.root(c.index, 0), 0)
			t := time.Now()
			fab.Run(func(ctx *cluster.Ctx) { es, err = repo.Export(ctx, &archive, last.Image, leg[0], leg[1]) })
			exportNs += time.Since(t).Nanoseconds()
			tr.end(sp, 0)
			if err != nil {
				return fmt.Errorf("%s: export: %w", w.name, err)
			}
			exported += int64(archive.Len())
			sp = tr.begin("facade.import", c.index, tr.root(c.index, 0), 0)
			t = time.Now()
			fab2.Run(func(ctx *cluster.Ctx) { is, err = repo2.Import(ctx, &archive) })
			importNs += time.Since(t).Nanoseconds()
			tr.end(sp, 0)
			if err != nil {
				return fmt.Errorf("%s: import: %w", w.name, err)
			}
			imported += is.ArchiveBytes
			deduped += is.DedupedChunks
			if leg[0] > 0 {
				deltaBytes, fullBytes = deltaBytes+es.DeltaBytes(), fullBytes+es.FullBytes
			}
			imports[c.index] = is.Image
		}
		return nil
	}
	for _, c := range clients {
		if err == nil {
			err = ship(c)
		}
	}
	r.host.stop()
	if err != nil {
		return r, err
	}
	r.trafficB = fab.NetTraffic() + fab2.NetTraffic()

	// Counters are read here, before the checker's own reads move them.
	var cold, wr, coldB, wrB float64
	var snapshotS []float64
	var ds blobvfs.DiskStats
	for _, c := range clients {
		snapshotS = append(snapshotS, c.snapshotS...)
		if first {
			w.live.completionS = max(w.live.completionS, c.doneAt-began)
			w.live.snapshotS = append(w.live.snapshotS, c.snapshotModelS...)
		}
		cold, wr = cold+float64(c.coldNs), wr+float64(c.writeNs)
		coldB, wrB = coldB+float64(c.coldBytes), wrB+float64(c.writeBytes)
		addDiskStats(&ds, c.mirror)
	}
	// Each round reads every chunk twice, cold then warm.
	mirrorCounts(r.layer, ds, 2*int(w.imageSize)/w.chunkSize*w.rounds*w.clients)
	sys := repo.System()
	for k, v := range map[string]float64{
		"live.read_mb_s":          coldB / 1e6 / (cold / 1e9),
		"live.write_mb_s":         wrB / 1e6 / (wr / 1e9),
		"sync.export_mb_s":        float64(exported) / 1e6 / (float64(exportNs) / 1e9),
		"sync.import_mb_s":        float64(imported) / 1e6 / (float64(importNs) / 1e9),
		"sync.delta_ratio":        ratio(float64(deltaBytes), float64(fullBytes)),
		"sync.deduped_chunks":     float64(deduped),
		"blob.meta.gets":          float64(sys.Meta.Gets.Load()),
		"blob.meta.nodes_served":  float64(sys.Meta.NodesServed.Load()),
		"blob.meta.puts":          float64(sys.Meta.Puts.Load()),
		"blob.meta.batch_factor":  ratio(float64(sys.Meta.NodesServed.Load()), float64(sys.Meta.Gets.Load())),
		"blob.provider.put_rpcs":  float64(sys.Providers.PutRPCs.Load()),
		"blob.provider.writes":    float64(sys.Providers.Writes.Load()),
		"blob.provider.reads":     float64(sys.Providers.Reads.Load()),
		"blob.provider.hot_share": ratio(float64(sys.Providers.MaxNodeReads()), float64(sys.Providers.Reads.Load())),
		"live.snapshot_p50_s":     quantile(snapshotS, 0.5),
	} {
		r.layer[k] = v
	}
	r.completionS, r.ops = w.live.completionS, w.live.snapshotS

	// Checks run with the watch stopped. The full byte comparison costs
	// as much as the rounds, so it runs on the first rep of a process;
	// every rep checks the survivors of the collection.
	if first {
		w.check(r, seed, image, clients, imports, repo, repo2, fab, fab2)
	}

	// Retire every lineage to its latest version and collect.
	var gc blobvfs.GCReport
	r.host.start()
	fab.Run(func(ctx *cluster.Ctx) {
		for _, c := range clients {
			last := c.lineage[len(c.lineage)-1]
			sp := tr.begin("facade.retire", c.index, tr.root(c.index, 0), 0)
			_, err = repo.RetireUpTo(ctx, last.Image, last.Version-1)
			tr.end(sp, 0)
			if err != nil {
				return
			}
		}
		sp := tr.begin("facade.gc", -1, -1, 0)
		t := time.Now()
		gc, err = repo.GC(ctx)
		r.layer["blob.gc.host_s"] = time.Since(t).Seconds()
		tr.end(sp, 0)
	})
	r.host.stop()
	if err != nil {
		return r, fmt.Errorf("%s: retire+gc: %w", w.name, err)
	}
	r.layer["blob.gc.freed_chunks"] = float64(gc.FreedChunks)
	r.layer["blob.gc.marked_nodes"] = float64(gc.MarkedNodes)
	live := float64(1 + len(clients))
	r.storedRatio = float64(repo.Stats().StoredBytes) / (live * float64(w.imageSize))
	w.checkSurvivors(r, seed, image, clients, repo, fab)
	return r, nil
}

// replay rebuilds in the shadow buffer what client c's image held after
// the given number of rounds.
func (w *workload) replay(seed int64, image []byte, c *liveClient, rounds int) []byte {
	shadow := w.live.shadow
	copy(shadow, image)
	rng := rand.New(rand.NewSource(seed + seedLiveClient + int64(c.index)))
	for i := 0; i < rounds; i++ {
		for _, lw := range w.liveWrites(rng) {
			copy(shadow[lw.off:], c.ink[lw.ink:lw.ink+lw.len])
		}
	}
	return shadow
}

// check byte-compares Download of every committed snapshot, of every
// imported one, and a cold mirror read-back of the last, against the
// replayed shadow. Every comparison is one attempted operation.
func (w *workload) check(r *rep, seed int64, image []byte, clients []*liveClient, imports []blobvfs.ImageID,
	repo, repo2 *blobvfs.Repo, fab, fab2 cluster.Fabric) {
	for _, c := range clients {
		for round, snap := range c.lineage {
			shadow := w.replay(seed, image, c, round+1)
			got := w.live.got
			same := func(err error) {
				r.attempted++
				if err != nil || !bytes.Equal(got, shadow) {
					r.failed++
				}
			}
			var err error
			fab.Run(func(ctx *cluster.Ctx) { err = repo.Download(ctx, snap, got) })
			same(err)
			fab2.Run(func(ctx *cluster.Ctx) {
				err = repo2.Download(ctx, blobvfs.Snapshot{Image: imports[c.index], Version: snap.Version}, got)
			})
			same(err)
			if round < len(c.lineage)-1 {
				continue
			}
			// A provider node never hosted a client, so its mirror of
			// the final snapshot starts empty.
			fab.Run(func(ctx *cluster.Ctx) {
				ctx.Wait(ctx.Go("readback", cluster.NodeID(2*w.clients), func(cc *cluster.Ctx) {
					var d *blobvfs.Disk
					if d, err = repo.OpenDisk(cc, cc.Node(), snap); err == nil {
						_, err = d.ReadAt(cc, got, 0)
						d.Close(cc)
					}
				}))
			})
			same(err)
		}
	}
}

// checkSurvivors runs after retire+GC: each lineage must hold exactly
// its latest version, byte-equal to the shadow.
func (w *workload) checkSurvivors(r *rep, seed int64, image []byte, clients []*liveClient, repo *blobvfs.Repo, fab cluster.Fabric) {
	var download time.Duration
	for _, c := range clients {
		last := c.lineage[len(c.lineage)-1]
		shadow := w.replay(seed, image, c, len(c.lineage))
		r.attempted++
		fab.Run(func(ctx *cluster.Ctx) {
			vs, err := repo.Versions(ctx, last.Image)
			if err == nil {
				t := time.Now()
				err = repo.Download(ctx, last, w.live.got)
				download += time.Since(t)
			}
			if err != nil || len(vs) != 1 || vs[0] != last.Version || !bytes.Equal(w.live.got, shadow) {
				r.failed++
			}
		})
	}
	r.layer["facade.download_mb_s"] = float64(len(clients)) * float64(w.imageSize) / 1e6 / download.Seconds()
}
