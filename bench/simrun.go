package main

import (
	"fmt"
	"runtime"
	"time"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// simScenario is one sim-fabric run after setup: fabric built, repo
// open, base image uploaded, orchestrator wired.
type simScenario struct {
	w    *workload
	lay  layout
	fab  *cluster.Sim
	repo *blobvfs.Repo
	base blobvfs.Snapshot
	orch *middleware.Orchestrator
}

// newSim builds the scenario. With a tracer the backend is wrapped in
// the span-recording decorator before the orchestrator sees it.
func (w *workload) newSim(seed int64, tr *tracer) (*simScenario, error) {
	sc := &simScenario{w: w, lay: w.layout()}
	sc.fab = cluster.NewSim(sc.lay.cfg)
	opts := []blobvfs.Option{
		blobvfs.WithProviders(sc.lay.prov...),
		blobvfs.WithManager(sc.lay.service),
		blobvfs.WithReplicas(w.replicas),
		blobvfs.WithMetaReplicas(w.metaRepl),
		blobvfs.WithChunkSize(w.chunkSize),
	}
	if w.p2p {
		opts = append(opts, blobvfs.WithP2P())
	}
	if sc.lay.cfg.Topology.Enabled() {
		opts = append(opts, blobvfs.WithTopology(sc.lay.cfg.Topology))
	}
	if plan := w.faultPlan(sc.lay.prov); plan != nil {
		opts = append(opts, blobvfs.WithFaultPlan(plan...))
	}
	repo, err := blobvfs.Open(sc.fab, opts...)
	if err != nil {
		return nil, err
	}
	sc.repo = repo
	sc.fab.Run(func(ctx *cluster.Ctx) {
		sc.base, err = repo.CreateSynthetic(ctx, "base", w.imageSize)
	})
	if err != nil {
		return nil, err
	}
	var backend middleware.Backend = middleware.NewMirrorBackend(repo, sc.base)
	if tr != nil {
		backend = &tracedBackend{Backend: backend, tr: tr, boots: w.kind == kindDeploy}
	}
	sc.orch = &middleware.Orchestrator{Backend: backend, Nodes: sc.lay.inst}
	if w.kind == kindDeploy {
		baseOps := w.bootTrace()
		thinkRNG := sim.NewRNG(seed + seedThinkJitter)
		startRNG := sim.NewRNG(seed + seedStartJitter)
		sc.orch.TraceFor = func(int) []vmmodel.TraceOp {
			return vmmodel.WithThinkJitter(baseOps, thinkRNG.Fork(), w.boot.TotalThink)
		}
		sc.orch.StartJitter = func(int) float64 {
			return startRNG.Uniform(w.jitterMin, w.jitterMax)
		}
	}
	return sc, nil
}

// raw reads the stack's public cumulative counters. The difference of
// two reads attributes a phase to the layers.
func (sc *simScenario) raw() map[string]float64 {
	sys := sc.repo.System()
	return map[string]float64{
		"sim.steps":                  float64(sc.fab.Env().Steps()),
		"blob.meta.gets":             float64(sys.Meta.Gets.Load()),
		"blob.meta.nodes_served":     float64(sys.Meta.NodesServed.Load()),
		"blob.meta.puts":             float64(sys.Meta.Puts.Load()),
		"blob.meta.failovers":        float64(sys.Meta.Failovers.Load()),
		"blob.meta.rereplicated":     float64(sys.Meta.Rereplicated.Load()),
		"blob.meta.failed_gets":      float64(sys.Meta.FailedGets.Load()),
		"blob.provider.put_rpcs":     float64(sys.Providers.PutRPCs.Load()),
		"blob.provider.writes":       float64(sys.Providers.Writes.Load()),
		"blob.provider.reads":        float64(sys.Providers.Reads.Load()),
		"blob.provider.failovers":    float64(sys.Providers.Failovers.Load()),
		"blob.provider.rereplicated": float64(sys.Providers.Rereplicated.Load()),
		"blob.provider.failed_reads": float64(sys.Providers.FailedReads.Load()),
		"blob.vm.failovers":          float64(sys.VM.Failovers.Load()),
	}
}

// layerCounts turns m, the counter delta of the measured phase, into the
// per-layer count metrics, adding the ones read from the fabric, the
// disks and the sharing cohort.
func (sc *simScenario) layerCounts(m map[string]float64, disks []vmmodel.VirtualDisk, hostS float64, readChunks int) map[string]float64 {
	sys := sc.repo.System()
	m["sim.steps_per_instance"] = m["sim.steps"] / float64(sc.w.instances)
	m["sim.events_per_host_s"] = ratio(m["sim.steps"], hostS)
	m["blob.meta.batch_factor"] = ratio(m["blob.meta.nodes_served"], m["blob.meta.gets"])
	m["blob.provider.hot_share"] = ratio(float64(sys.Providers.MaxNodeReads()), float64(sys.Providers.Reads.Load()))
	m["fabric.tier_rack_mb"] = float64(sc.fab.TierTraffic(cluster.TierRack)) / 1e6
	m["fabric.tier_zone_mb"] = float64(sc.fab.TierTraffic(cluster.TierZone)) / 1e6
	m["fabric.tier_remote_mb"] = float64(sc.fab.TierTraffic(cluster.TierRemote)) / 1e6

	var ds blobvfs.DiskStats
	for _, vd := range disks {
		addDiskStats(&ds, asDisk(vd).Stats())
	}
	mirrorCounts(m, ds, readChunks)

	if st, ok := sc.repo.SharingStats(sc.base.Image); ok {
		locates := st.PeerHits + st.Misses + st.Saturated
		m["p2p.peer_hits"] = float64(st.PeerHits)
		m["p2p.hit_rate"] = ratio(float64(st.PeerHits), float64(locates))
		m["p2p.digest_hits"] = float64(st.DigestHits)
		m["p2p.digest_pushes"] = float64(st.DigestPushes)
		m["p2p.digest_rpcs_est"] = float64(st.DigestPushes) * float64(sc.w.instances)
		m["p2p.announced"] = float64(st.Announced)
		m["p2p.duplicates"] = float64(st.Duplicates)
		m["p2p.saturated"] = float64(st.Saturated)
		m["p2p.dead_dropped"] = float64(st.DeadDropped)
		m["p2p.tier_rack_share"] = ratio(float64(st.TierHits[cluster.TierRack]), float64(st.PeerHits))
	}
	return m
}

// addDiskStats adds the counters the mirror metrics are made of.
func addDiskStats(sum *blobvfs.DiskStats, s blobvfs.DiskStats) {
	sum.RemoteChunkFetches += s.RemoteChunkFetches
	sum.DuplicateFetches += s.DuplicateFetches
	sum.FetchRetries += s.FetchRetries
	sum.GapFills += s.GapFills
	sum.CommittedChunks += s.CommittedChunks
}

// mirrorCounts writes the mirror.* count metrics. readChunks is how many
// chunks the reads the benchmark issued covered: DiskStats books every
// read as local once it is served, so the hit rate is taken against what
// was asked for.
func mirrorCounts(m map[string]float64, ds blobvfs.DiskStats, readChunks int) {
	m["mirror.remote_chunk_fetches"] = float64(ds.RemoteChunkFetches)
	if readChunks > 0 {
		m["mirror.local_hit_rate"] = 1 - float64(ds.RemoteChunkFetches)/float64(readChunks)
	}
	m["mirror.duplicate_fetches"] = float64(ds.DuplicateFetches)
	m["mirror.fetch_retries"] = float64(ds.FetchRetries)
	m["mirror.gap_fills"] = float64(ds.GapFills)
	m["mirror.committed_chunks"] = float64(ds.CommittedChunks)
}

// asDisk returns the façade disk behind a virtual disk, traced or not.
func asDisk(vd vmmodel.VirtualDisk) *blobvfs.Disk {
	if td, ok := vd.(*tracedDisk); ok {
		vd = td.VirtualDisk
	}
	return vd.(*blobvfs.Disk)
}

// timeSetup sets a deploy workload up once more and throws the scenario
// away. These setups take tens of milliseconds, so a run takes several
// per rep to have a median worth gating.
func (w *workload) timeSetup(seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	_, err := w.newSim(seed, nil)
	return time.Since(t0).Seconds(), err
}

// deployRep provisions and boots every instance at once through
// Orchestrator.Deploy. Setup is everything before the deploy call.
func (w *workload) deployRep(seed int64, tr *tracer) (*rep, error) {
	runtime.GC()
	t0 := time.Now()
	sc, err := w.newSim(seed, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{setupS: time.Since(t0).Seconds(), attempted: w.instances}
	sc.fab.ResetTraffic()
	before := sc.raw()

	var dep *middleware.DeployResult
	runtime.GC()
	r.host.start()
	sc.fab.Run(func(ctx *cluster.Ctx) {
		if w.kills > 0 {
			// Rebased: the upload already consumed virtual seconds, and
			// the kills must land inside the disk-open wave.
			if err = sc.repo.ArmFaultsRebased(ctx); err != nil {
				return
			}
		}
		dep, err = sc.orch.Deploy(ctx)
	})
	r.host.stop()
	if err != nil {
		// Deploy reports the first failed instance and drops the rest.
		r.failed = w.instances
		return r, fmt.Errorf("%s: deploy: %w", w.name, err)
	}

	r.completionS = dep.Completion
	r.trafficB = sc.fab.NetTraffic()
	var disks []vmmodel.VirtualDisk
	var provision, boot []float64
	for _, inst := range dep.Instances {
		if inst == nil || inst.BootDoneAt <= 0 {
			r.failed++
			continue
		}
		r.ops = append(r.ops, inst.ProvisionTime+inst.BootTime)
		provision = append(provision, inst.ProvisionTime)
		boot = append(boot, inst.BootTime)
		disks = append(disks, inst.Disk)
	}
	st := sc.repo.Stats()
	r.storedRatio = float64(st.StoredBytes) / float64(w.imageSize)
	readChunks := 0
	for _, op := range w.bootTrace() {
		if !op.Write {
			cs := int64(w.chunkSize)
			readChunks += int((op.Off+op.Len-1)/cs - op.Off/cs + 1)
		}
	}
	delta := sc.raw()
	for k, v := range before {
		delta[k] -= v
	}
	r.layer = sc.layerCounts(delta, disks, r.host.wall.Seconds(), readChunks*len(disks))
	r.layer["orch.prepare_s"] = dep.PrepareTime
	r.layer["orch.provision_p50_s"] = quantile(provision, 0.5)
	r.layer["orch.boot_p50_s"] = quantile(boot, 0.5)
	return r, nil
}

// herdRep runs w.rounds rounds of "every instance dirties w.diff bytes,
// then SnapshotAll". The measured phase is the SnapshotAll calls; the
// dirtying between them is the application's work, as in §5.3, and runs
// with the watch stopped. Setup provisions every disk and applies round
// 1's modifications in the same activity, and the first SnapshotAll
// starts the instant the last instance is ready, with write-back still
// draining: that is the paper's Fig. 5 point, and -anchors holds round 1
// to it. Retiring each lineage to its latest version and one GC cycle
// follow, timed on their own; the final snapshots are then reopened and
// checked.
func (w *workload) herdRep(seed int64, tr *tracer) (*rep, error) {
	runtime.GC()
	t0 := time.Now()
	sc, err := w.newSim(seed, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{}
	instances := make([]*middleware.Instance, w.instances)
	// One write stream per instance, forked in instance order.
	dirtyRNG := sim.NewRNG(seed + seedDirty)
	rngs := make([]*sim.RNG, w.instances)
	for i := range rngs {
		rngs[i] = dirtyRNG.Fork()
	}
	delta := make(map[string]float64)
	snapshotAll := func(ctx *cluster.Ctx, round int) error {
		before := sc.raw()
		runtime.GC()
		r.host.start()
		res, err := sc.orch.SnapshotAll(ctx, instances)
		r.host.stop()
		r.attempted += w.instances
		if err != nil {
			r.failed += w.instances
			return err
		}
		for k, v := range sc.raw() {
			delta[k] += v - before[k]
		}
		r.completionS += res.Completion
		r.ops = append(r.ops, res.Times...)
		if round == 0 {
			r.round1MeanS = sum(res.Times) / float64(len(res.Times))
			r.round1CompletionS = res.Completion
		}
		return nil
	}

	sc.fab.Run(func(ctx *cluster.Ctx) {
		errs := make([]error, w.instances)
		tasks := make([]cluster.Task, w.instances)
		for i, node := range sc.lay.inst {
			tasks[i] = ctx.Go("prep", node, func(cc *cluster.Ctx) {
				disk, err := sc.orch.Backend.Provision(cc, i, node)
				if err == nil {
					err = w.dirty(cc, disk, rngs[i])
				}
				errs[i] = err
				instances[i] = &middleware.Instance{Index: i, Node: node, Disk: disk}
			})
		}
		ctx.WaitAll(tasks)
		for _, e := range errs {
			if e != nil {
				err = fmt.Errorf("%s: provision: %w", w.name, e)
				return
			}
		}
		r.setupS = time.Since(t0).Seconds()
		sc.fab.ResetTraffic()
		err = snapshotAll(ctx, 0)
	})
	for round := 1; round < w.rounds && err == nil; round++ {
		sc.fab.Run(func(ctx *cluster.Ctx) {
			err = sc.orch.RunOnAll(ctx, instances, func(cc *cluster.Ctx, inst *middleware.Instance) error {
				return w.dirty(cc, inst.Disk, rngs[inst.Index])
			})
			if err == nil {
				err = snapshotAll(ctx, round)
			}
		})
	}
	if err != nil {
		return r, err
	}
	r.trafficB = sc.fab.NetTraffic()
	disks := make([]vmmodel.VirtualDisk, w.instances)
	for i, inst := range instances {
		disks[i] = inst.Disk
	}
	r.layer = sc.layerCounts(delta, disks, r.host.wall.Seconds(), 0)
	r.layer["orch.snapshot_p50_s"] = quantile(r.ops, 0.5)

	// Retire + GC, timed separately from the rounds.
	var gc blobvfs.GCReport
	sc.fab.Run(func(ctx *cluster.Ctx) {
		for i, d := range disks {
			cur := asDisk(d).Current()
			sp := tr.begin("facade.retire", i, tr.root(i, ctx.Now()), ctx.Now())
			_, err = sc.repo.RetireUpTo(ctx, cur.Image, cur.Version-1)
			tr.end(sp, ctx.Now())
			if err != nil {
				return
			}
		}
		sp := tr.begin("facade.gc", -1, -1, ctx.Now())
		gcT0, gcV0 := time.Now(), ctx.Now()
		gc, err = sc.repo.GC(ctx)
		r.layer["blob.gc.host_s"] = time.Since(gcT0).Seconds()
		r.layer["blob.gc.cycle_s"] = ctx.Now() - gcV0
		tr.end(sp, ctx.Now())
	})
	if err != nil {
		return r, fmt.Errorf("%s: retire+gc: %w", w.name, err)
	}
	r.layer["blob.gc.freed_chunks"] = float64(gc.FreedChunks)
	r.layer["blob.gc.marked_nodes"] = float64(gc.MarkedNodes)

	// The base and one final snapshot per instance stay live.
	live := float64(1 + w.instances)
	r.storedRatio = float64(sc.repo.Stats().StoredBytes) / (live * float64(w.imageSize))

	// Each final snapshot must be the only live version of a lineage of
	// its own, at version rounds+1 (CLONE made version 1), full size,
	// and must open again.
	sc.fab.Run(func(ctx *cluster.Ctx) {
		for _, d := range disks {
			cur := asDisk(d).Current()
			r.attempted++
			vs, verr := sc.repo.Versions(ctx, cur.Image)
			size, serr := sc.repo.Size(ctx, cur)
			ok := verr == nil && serr == nil &&
				cur.Image != sc.base.Image && int(cur.Version) == w.rounds+1 &&
				len(vs) == 1 && vs[0] == cur.Version && size == w.imageSize
			if ok {
				re, oerr := sc.repo.OpenDisk(ctx, ctx.Node(), cur, blobvfs.Synthetic())
				ok = oerr == nil && re.Size() == w.imageSize && re.Close(ctx) == nil
			}
			if !ok {
				r.failed++
			}
		}
	})
	return r, nil
}
