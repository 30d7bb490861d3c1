// Package bench regenerates every table and figure of the paper's
// evaluation (§5) as Go benchmarks. Each benchmark runs the
// corresponding experiment on the simulated cluster and reports the
// figure's headline values as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints, for every panel of Fig. 4/5/6/7/8, the same quantities the
// paper plots. Benchmarks default to the scaled-down Quick parameter
// set so the full suite stays fast; the *PaperScale benchmarks run the
// flagship 110-instance configuration with the full 2 GB image.
package blobvfs_test

import (
	"fmt"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/experiments"
	"blobvfs/internal/sim"
	"blobvfs/internal/sim/flownet"
	"blobvfs/internal/workloads"
)

func quickParams(maxInstances int) experiments.Params {
	p := experiments.Quick()
	p.MaxInstances = maxInstances
	return p
}

// BenchmarkFig4MultiDeployment regenerates Fig. 4(a), (b) and (d) at
// one sweep point per approach: average boot time, completion time and
// network traffic of a concurrent deployment.
func BenchmarkFig4MultiDeployment(b *testing.B) {
	const n = 16
	for _, a := range []experiments.Approach{
		experiments.TaktukPreprop, experiments.QcowOverPVFS, experiments.OurApproach,
	} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			p := quickParams(n)
			var last experiments.Fig4Result
			for i := 0; i < b.N; i++ {
				last = *experiments.RunFig4(p, []int{n})
			}
			pt := last.Series[a][0]
			b.ReportMetric(pt.AvgBoot, "avgBoot-s")
			b.ReportMetric(pt.Completion, "completion-s")
			b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
		})
	}
}

// BenchmarkFig4PaperScale runs the flagship point of the paper's
// abstract: 110 concurrent instances, 2 GB image. The reported
// speedups are Fig. 4(c)'s rightmost values.
func BenchmarkFig4PaperScale(b *testing.B) {
	p := experiments.Default()
	var ours, qcow, prep experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(p, []int{110})
		ours = r.Series[experiments.OurApproach][0]
		qcow = r.Series[experiments.QcowOverPVFS][0]
		prep = r.Series[experiments.TaktukPreprop][0]
	}
	b.ReportMetric(prep.Completion/ours.Completion, "speedup-vs-taktuk")
	b.ReportMetric(qcow.Completion/ours.Completion, "speedup-vs-qcow2")
	b.ReportMetric((1-ours.TrafficGB/prep.TrafficGB)*100, "traffic-reduction-%")
	b.ReportMetric(ours.Completion, "ours-completion-s")
}

// BenchmarkFig5MultiSnapshotting regenerates Fig. 5(a)/(b): the
// concurrent snapshot of all instances, ~15 MB of local modifications
// each (scaled down under Quick parameters).
func BenchmarkFig5MultiSnapshotting(b *testing.B) {
	const n = 16
	for _, a := range []experiments.Approach{
		experiments.QcowOverPVFS, experiments.OurApproach,
	} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			p := quickParams(n)
			var last experiments.Fig5Result
			for i := 0; i < b.N; i++ {
				last = *experiments.RunFig5(p, []int{n})
			}
			pt := last.Series[a][0]
			b.ReportMetric(pt.AvgTime, "avgSnapshot-s")
			b.ReportMetric(pt.Completion, "completion-s")
		})
	}
}

// BenchmarkFig5PaperScale runs the 110-instance multisnapshotting
// point with full parameters (15 MB diffs).
func BenchmarkFig5PaperScale(b *testing.B) {
	p := experiments.Default()
	var ours, qcow experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig5(p, []int{110})
		ours = r.Series[experiments.OurApproach][0]
		qcow = r.Series[experiments.QcowOverPVFS][0]
	}
	b.ReportMetric(ours.AvgTime, "ours-avg-s")
	b.ReportMetric(qcow.AvgTime, "qcow2-avg-s")
	b.ReportMetric(ours.Completion, "ours-completion-s")
	b.ReportMetric(qcow.Completion, "qcow2-completion-s")
}

// BenchmarkFig6Bonnie regenerates Fig. 6: Bonnie++ sustained
// throughput through both local I/O paths (KB/s, 8 KB blocks).
func BenchmarkFig6Bonnie(b *testing.B) {
	var r *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig67(workloads.DefaultBonnieConfig())
	}
	b.ReportMetric(float64(r.Local.BlockWriteKBps), "local-BlockW-KBps")
	b.ReportMetric(float64(r.Ours.BlockWriteKBps), "ours-BlockW-KBps")
	b.ReportMetric(float64(r.Local.BlockReadKBps), "local-BlockR-KBps")
	b.ReportMetric(float64(r.Ours.BlockReadKBps), "ours-BlockR-KBps")
	b.ReportMetric(float64(r.Local.BlockRewrKBps), "local-BlockO-KBps")
	b.ReportMetric(float64(r.Ours.BlockRewrKBps), "ours-BlockO-KBps")
}

// BenchmarkFig7BonnieOps regenerates Fig. 7: Bonnie++ metadata
// operations per second through both paths.
func BenchmarkFig7BonnieOps(b *testing.B) {
	var r *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig67(workloads.DefaultBonnieConfig())
	}
	b.ReportMetric(float64(r.Local.SeeksPerSec), "local-RndSeek-ops")
	b.ReportMetric(float64(r.Ours.SeeksPerSec), "ours-RndSeek-ops")
	b.ReportMetric(float64(r.Local.CreatesPerSec), "local-CreatF-ops")
	b.ReportMetric(float64(r.Ours.CreatesPerSec), "ours-CreatF-ops")
	b.ReportMetric(float64(r.Local.DeletesPerSec), "local-DelF-ops")
	b.ReportMetric(float64(r.Ours.DeletesPerSec), "ours-DelF-ops")
}

// BenchmarkFig8MonteCarlo regenerates Fig. 8: completion time of the
// Monte Carlo deployment in the uninterrupted and suspend/resume
// settings (Quick parameters, 16 workers).
func BenchmarkFig8MonteCarlo(b *testing.B) {
	p := quickParams(16)
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(p, 16)
	}
	u := r.Completion[experiments.Uninterrupted]
	s := r.Completion[experiments.SuspendResume]
	b.ReportMetric(u[experiments.TaktukPreprop], "uninterrupted-preprop-s")
	b.ReportMetric(u[experiments.QcowOverPVFS], "uninterrupted-qcow2-s")
	b.ReportMetric(u[experiments.OurApproach], "uninterrupted-ours-s")
	b.ReportMetric(s[experiments.QcowOverPVFS], "resume-qcow2-s")
	b.ReportMetric(s[experiments.OurApproach], "resume-ours-s")
}

// BenchmarkFlashCrowd256 runs the flash-crowd scenario at the
// acceptance scale: 256 instances of the same image deployed
// concurrently against an 8-node provider pool, with the p2p
// chunk-sharing layer off and on. The headline metrics are where the
// chunk traffic landed — total provider reads, the hottest provider's
// reads (the hot-spot), and peer-served reads — plus the deployment
// completion time. With sharing enabled, per-provider traffic must be
// strictly lower: provider load stops scaling with the crowd.
func BenchmarkFlashCrowd256(b *testing.B) {
	for _, sharing := range []bool{false, true} {
		sharing := sharing
		name := "sharing-off"
		if sharing {
			name = "sharing-on"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Quick()
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = experiments.RunFlashCrowd(p, experiments.Crowd{
					Instances: 256,
					Providers: 8,
					Sharing:   sharing,
				})
			}
			b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
			b.ReportMetric(float64(pt.MaxProviderReads), "hottest-provider-reads")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(float64(pt.MetaGets), "meta-gets")
			b.ReportMetric(pt.Completion, "completion-s")
			b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
		})
	}
}

// BenchmarkFlashCrowdScale sweeps the flash crowd across instance
// counts toward the ROADMAP's paper-scale ×100 target. Together with
// BenchmarkFlashCrowd10k its bench.txt rows are the scale trajectory:
// instances vs wall-clock ns/op and allocs/op, the curve that shows
// whether the simulator itself scales. Every point runs with p2p
// sharing on — the churn-heavy path — and fails the benchmark if any
// instance does not boot.
func BenchmarkFlashCrowdScale(b *testing.B) {
	for _, n := range []int{256, 1024} {
		n := n
		b.Run(fmt.Sprintf("inst-%d", n), func(b *testing.B) {
			benchFlashCrowdScale(b, n)
		})
	}
}

// BenchmarkFlashCrowd10k is the paper-scale ×100 point: a 10k-instance
// flash crowd against the same 8-provider pool, about a minute of wall
// clock. Skipped under -short; make bench always runs it, and make
// crowd10k runs it alone, so its peak-rss-MB is its own.
func BenchmarkFlashCrowd10k(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping 10k flash crowd in -short mode")
	}
	benchFlashCrowdScale(b, 10000)
}

func benchFlashCrowdScale(b *testing.B, instances int) {
	p := experiments.Quick()
	var pt experiments.CrowdPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunFlashCrowd(p, experiments.Crowd{
			Instances: instances,
			Providers: 8,
			Sharing:   true,
		})
		if pt.Booted != instances {
			b.Fatalf("only %d of %d instances booted", pt.Booted, instances)
		}
	}
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(float64(pt.Booted), "booted")
	b.ReportMetric(float64(pt.Steps), "sim-steps")
	b.ReportMetric(pt.Completion, "completion-s")
	b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
	b.ReportMetric(float64(pt.PeerReads), "peer-reads")
	b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
	if mb, ok := peakRSSMB(); ok {
		b.ReportMetric(mb, "peak-rss-MB")
	}
}

// BenchmarkFlashCrowdDegraded reruns the 256-instance flash crowd
// while the fault plan kills half the (replicated) provider pool
// mid-deployment, against the healthy baseline of the same
// configuration. The headline metrics are the resilience costs: the
// completion-time penalty of losing 8 providers, how many reads failed
// over, and how many chunk copies re-replication recreated. Every
// instance must still complete — RunDegraded panics otherwise, failing
// the benchmark.
func BenchmarkFlashCrowdDegraded(b *testing.B) {
	for _, kill := range []int{0, 8} {
		kill := kill
		name := "healthy"
		if kill > 0 {
			name = "kill-8"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Quick()
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = experiments.RunDegraded(p, experiments.Crowd{
					Instances: 256,
					Sharing:   true,
					Kill:      kill,
				})
			}
			b.ReportMetric(float64(pt.Booted), "booted")
			b.ReportMetric(float64(pt.Failovers), "failovers")
			b.ReportMetric(float64(pt.Rereplicated), "re-replicated")
			b.ReportMetric(float64(pt.FailedFetches), "failed-fetches")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(pt.Completion, "completion-s")
		})
	}
}

// BenchmarkFlashCrowdCrossZone runs the flash crowd over a zoned
// fabric: 3 availability zones × 64 instances deploying one image from
// a provider pool with 3 members per zone (p2p sharing on), with the
// flat policy vs topology-aware placement and peer selection
// (WithTopology) over the identical physical fabric. The headline
// metric is the traffic that crossed a zone interconnect — the scarce,
// expensive bytes — which awareness must cut by at least 2×; the guard
// fails the benchmark if it ever regresses below that.
func BenchmarkFlashCrowdCrossZone(b *testing.B) {
	const perZone = 64
	run := func(aware bool) experiments.CrowdPoint {
		return experiments.RunCrossZone(experiments.Quick(), experiments.Crowd{
			Instances: 3 * perZone,
			Aware:     aware,
			Sharing:   true,
		})
	}
	// The comparison is reported on the aware row: go test prints no
	// row for a benchmark that has sub-benchmarks.
	var flat experiments.CrowdPoint
	for _, aware := range []bool{false, true} {
		name := "flat"
		if aware {
			name = "aware"
		}
		b.Run(name, func(b *testing.B) {
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = run(aware)
			}
			b.ReportMetric(float64(pt.CrossZoneBytes)/1e6, "cross-zone-MB")
			b.ReportMetric(float64(pt.TierBytes[cluster.TierZone])/1e6, "zone-local-MB")
			b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(pt.Completion, "completion-s")
			if !aware {
				flat = pt
				return
			}
			if flat.CrossZoneBytes > 0 && pt.CrossZoneBytes > 0 {
				ratio := float64(flat.CrossZoneBytes) / float64(pt.CrossZoneBytes)
				b.ReportMetric(ratio, "cross-zone-reduction-x")
				if ratio < 2 {
					b.Fatalf("topology awareness cut cross-zone bytes only %.2fx (flat %d, aware %d), want >= 2x",
						ratio, flat.CrossZoneBytes, pt.CrossZoneBytes)
				}
			}
		})
	}
}

// BenchmarkFlashCrowdMetaOutage runs the metadata-outage scenario at
// acceptance scale: a 256-instance flash crowd (p2p sharing on) with
// metadata replication degree 2, healthy vs an outage that kills half
// of the 16 metadata providers plus one full compute rack mid-run. The
// headline metrics are the metadata failovers and re-replicated tree
// nodes the outage forces, the failed descents (the guard: must be 0 —
// the control plane never loses a metadata lookup), and the completion
// delta against the healthy baseline. Every instance must boot in both
// arms.
func BenchmarkFlashCrowdMetaOutage(b *testing.B) {
	const instances = 256
	run := func(outage bool) experiments.CrowdPoint {
		mc := experiments.Crowd{Instances: instances, Sharing: true}
		if outage {
			mc.Kill = 8
			mc.KillRack = true
		}
		return experiments.RunMetaOutage(experiments.Quick(), mc)
	}
	// The delta is reported on the outage row: go test prints no row
	// for a benchmark that has sub-benchmarks.
	var healthy experiments.CrowdPoint
	for _, outage := range []bool{false, true} {
		name := "healthy"
		if outage {
			name = "outage"
		}
		b.Run(name, func(b *testing.B) {
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = run(outage)
			}
			b.ReportMetric(float64(pt.Booted), "booted")
			b.ReportMetric(float64(pt.MetaFailovers), "meta-failovers")
			b.ReportMetric(float64(pt.MetaRereplicated), "meta-re-replicated")
			b.ReportMetric(float64(pt.FailedDescents), "failed-descents")
			b.ReportMetric(pt.Completion, "completion-s")
			if pt.Booted != pt.Instances {
				b.Fatalf("%s: %d of %d instances booted", name, pt.Booted, pt.Instances)
			}
			if pt.FailedDescents != 0 {
				b.Fatalf("%s: %d metadata descents found no live replica, want 0", name, pt.FailedDescents)
			}
			if !outage {
				healthy = pt
				return
			}
			if healthy.Completion > 0 && pt.Completion > 0 {
				b.ReportMetric(pt.Completion-healthy.Completion, "completion-delta-s")
				if pt.MetaFailovers == 0 {
					b.Fatal("the outage run exercised no metadata failover")
				}
			}
		})
	}
}

// BenchmarkMultisnapshot1024 runs the paper's headline workload at
// full fan-out: 1024 instances each committing a 16 MB diff (64 dirty
// chunks) concurrently against a 4-node provider pool, over two rounds
// (CLONE+COMMIT, then COMMIT). The headline metric is provider write
// RPCs per commit round — chunk puts plus metadata puts. The guard is
// structural: a commit sends each provider at most one chunk-put RPC,
// so a round may cost at most instances × providers of them, however
// many chunks it publishes.
func BenchmarkMultisnapshot1024(b *testing.B) {
	const (
		instances = 1024
		providers = 4
		diffBytes = 16 << 20 // 64 dirty chunks of 256 KB per instance per round
	)
	var pt experiments.MultisnapshotPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunMultisnapshot(experiments.Quick(), experiments.MultisnapshotConfig{
			Instances: instances,
			Providers: providers,
			DiffBytes: diffBytes,
		})
	}
	b.ReportMetric(pt.WriteRPCs, "write-RPCs/round")
	b.ReportMetric(pt.ChunkPutRPCs, "chunk-put-RPCs/round")
	b.ReportMetric(pt.MetaPutRPCs, "meta-put-RPCs/round")
	b.ReportMetric(pt.ChunkWrites, "chunk-writes/round")
	b.ReportMetric(pt.Completion, "completion-s")
	if pt.ChunkPutRPCs > instances*providers {
		b.Fatalf("%.0f chunk-put RPCs per round for %.0f chunk writes, want at most instances × providers = %d",
			pt.ChunkPutRPCs, pt.ChunkWrites, instances*providers)
	}
}

// BenchmarkChurn runs the snapshot-lifecycle scenario at acceptance
// scale: 32 instances, 8 write→snapshot cycles under keep-last-2
// retention with garbage collection after every round. The headline
// metrics are the reclaimed-chunk count (must be positive — the
// lifecycle works) and the peak/final provider chunk counts (final ≈
// peak — storage is bounded; without retention it grows every cycle).
func BenchmarkChurn(b *testing.B) {
	p := experiments.Quick()
	var pt experiments.ChurnPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunChurn(p, experiments.ChurnConfig{
			Instances: 32,
			Cycles:    8,
			KeepLast:  2,
		})
	}
	b.ReportMetric(float64(pt.ReclaimedChunks), "reclaimed-chunks")
	b.ReportMetric(float64(pt.ReclaimedBytes)/1e6, "reclaimed-MB")
	b.ReportMetric(float64(pt.PeakChunks), "peak-chunks")
	b.ReportMetric(float64(pt.FinalChunks), "final-chunks")
	b.ReportMetric(float64(pt.FreedNodes), "freed-meta-nodes")
	b.ReportMetric(pt.Completion, "completion-s")
}

// BenchmarkExportImport runs the differential-sync scenario: a base
// image shipped once in full, then four commit rounds each shipped as
// a delta archive to a downstream repository on a disjoint provider
// pool. The headline is the reduction factor — how many times smaller
// the average delta is than re-shipping the full image — gated at 5x:
// if deltas stop being deltas, the subsystem lost its point.
func BenchmarkExportImport(b *testing.B) {
	p := experiments.Quick()
	var pt experiments.SyncPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunSync(p, experiments.SyncConfig{})
	}
	b.ReportMetric(pt.AvgDeltaMB, "delta-MB")
	b.ReportMetric(pt.FullMB, "full-MB")
	b.ReportMetric(pt.Reduction, "reduction-x")
	b.ReportMetric(float64(pt.ShippedChunks), "shipped-chunks")
	if pt.Reduction < 5 {
		b.Fatalf("delta sync shipped only %.2fx less than full re-ships (full %.2f MB, avg delta %.2f MB), want >= 5x",
			pt.Reduction, pt.FullMB, pt.AvgDeltaMB)
	}
}

// BenchmarkCommitDataStructures measures the in-memory cost of the
// COMMIT primitive itself (no simulation): shadowing a 2 GB image's
// segment tree (8192 chunks) with a 60-chunk diff on a live fabric —
// the pure-algorithm core behind Fig. 3 and Fig. 5.
func BenchmarkCommitDataStructures(b *testing.B) {
	fab := cluster.NewLive(8)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		id, err = c.Create(ctx, 2<<30, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		v, err = c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		for i := 0; i < b.N; i++ {
			// Each iteration derives its write set from an RNG seeded
			// with a constant plus the iteration index, so any -benchtime
			// (1x included) produces the identical op sequence on every
			// machine — the reported metadata-nodes/op is comparable
			// across runs and hosts.
			rng := sim.NewRNG(9000 + int64(i))
			seen := map[int64]bool{}
			writes := make([]blob.ChunkWrite, 0, 60)
			for len(writes) < 60 {
				idx := rng.Int63n(8192)
				if seen[idx] {
					continue
				}
				seen[idx] = true
				writes = append(writes, blob.ChunkWrite{
					Index:   idx,
					Payload: blob.SyntheticPayload(256<<10, uint64(i)+1),
				})
			}
			nv, err := c.WriteChunks(ctx, id, v, writes)
			if err != nil {
				b.Fatal(err)
			}
			v = nv
		}
	})
	b.ReportMetric(float64(sys.Meta.NodeCount())/float64(b.N), "metadata-nodes/op")
}

// BenchmarkMetadataColdDescent measures the resolution of a whole 2 GB
// image's chunk map — what an image pays at Open: one level-order
// batched descent over 16383 tree nodes. cold is one cold client's
// descent on the live fabric. wave-110 is what paper-deploy's opens
// do: 110 concurrent ChunkMaps of one version on the sim fabric, which
// share one host-side walk of the tree (walks/op) and each replay its
// descent.
func BenchmarkMetadataColdDescent(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		fab := cluster.NewLive(8)
		sys, id, v := coldDescentImage(b, fab)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fab.Run(func(ctx *cluster.Ctx) {
				if _, err := blob.NewClient(sys).ChunkMap(ctx, id, v); err != nil {
					b.Fatal(err)
				}
			})
		}
		b.ReportMetric(float64(sys.Meta.Gets.Load())/float64(b.N), "meta-gets/op")
	})
	b.Run("wave-110", func(b *testing.B) {
		const wave = 110
		fab := cluster.NewSim(cluster.DefaultConfig(8 + wave))
		sys, id, v := coldDescentImage(b, fab)
		walks := sys.Meta.Walks.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fab.Run(func(ctx *cluster.Ctx) {
				tasks := make([]cluster.Task, wave)
				for n := range tasks {
					tasks[n] = ctx.Go("open", cluster.NodeID(8+n), func(cc *cluster.Ctx) {
						if _, err := blob.NewClient(sys).ChunkMap(cc, id, v); err != nil {
							b.Error(err)
						}
					})
				}
				ctx.WaitAll(tasks)
			})
		}
		b.ReportMetric(float64(sys.Meta.Walks.Load()-walks)/float64(b.N), "walks/op")
	})
}

// coldDescentImage stores one fully written 2 GB image of 256 KB
// chunks on providers 0–7 of fab, with the version manager on node 0.
func coldDescentImage(b *testing.B, fab cluster.Fabric) (*blob.System, blob.ID, blob.Version) {
	b.Helper()
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		id, err = c.Create(ctx, 2<<30, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		v, err = c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
	})
	return sys, id, v
}

// BenchmarkMaxMinRecompute measures the flow network's rate
// recomputation under a boot-storm-sized flow set — the hot path of
// the large simulations.
func BenchmarkMaxMinRecompute(b *testing.B) {
	env := sim.New()
	net := flownet.New(env)
	up := make([]*flownet.Link, 111)
	down := make([]*flownet.Link, 111)
	for i := range up {
		up[i] = net.NewLink("up", 117.5e6)
		down[i] = net.NewLink("down", 117.5e6)
	}
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 110; i++ {
			net.Start(1e12, up[i%111], down[(i*37+1)%111])
		}
	})
	env.RunUntil(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each Start arms a settle at the current instant, which runs
		// one full recomputation over ~110 flows.
		net.Start(1e12, up[i%111], down[(i*53+7)%111])
		env.RunUntil(env.Now())
	}
}

// BenchmarkAblationChunkSize sweeps the chunk-size trade-off of
// §3.1.3: too-small chunks pay request overhead, too-large chunks pay
// false sharing and wasted transfer. The default 256 KB sits at the
// knee.
func BenchmarkAblationChunkSize(b *testing.B) {
	p := quickParams(16)
	var pts []experiments.ChunkSizePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunChunkSizeAblation(p, 16, []int{16 << 10, 256 << 10, 4 << 20})
	}
	b.ReportMetric(pts[0].Completion, "16K-completion-s")
	b.ReportMetric(pts[1].Completion, "256K-completion-s")
	b.ReportMetric(pts[2].Completion, "4M-completion-s")
	b.ReportMetric(pts[2].TrafficGB*1e3, "4M-traffic-MB")
	b.ReportMetric(pts[1].TrafficGB*1e3, "256K-traffic-MB")
}

// BenchmarkAblationReplication sweeps the replication degree of
// §3.1.3: storage cost doubles per extra replica while deployment
// completion stays in the same ballpark (reads use one replica).
func BenchmarkAblationReplication(b *testing.B) {
	p := quickParams(8)
	var pts []experiments.ReplicationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunReplicationAblation(p, 8, []int{1, 2, 3})
	}
	b.ReportMetric(pts[0].StorageGB*1e3, "r1-storage-MB")
	b.ReportMetric(pts[1].StorageGB*1e3, "r2-storage-MB")
	b.ReportMetric(pts[2].StorageGB*1e3, "r3-storage-MB")
	b.ReportMetric(pts[0].Completion, "r1-completion-s")
	b.ReportMetric(pts[2].Completion, "r3-completion-s")
}
