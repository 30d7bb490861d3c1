// Command vmdeploy regenerates the paper's evaluation figures on the
// simulated cluster and prints them as aligned text tables.
//
// Usage:
//
//	vmdeploy [-quick] [-seed N] [-sweep 1,10,30,...] fig4|fig5|fig6|fig7|fig8|flash|churn|degraded|crosszone|multisnap|metaoutage|sync|ablations|all
//
// fig4 prints all four panels of Fig. 4 (multideployment), fig5 both
// panels of Fig. 5 (multisnapshotting), fig6/fig7 the Bonnie++
// comparison, fig8 the Monte Carlo application, flash the flash-crowd
// scenario with p2p sharing off/on, churn the snapshot-lifecycle
// scenario (keep-last-K retention + garbage collection; see -cycles
// and -keep), degraded the flash crowd rerun while -kill providers
// fail mid-deployment (healthy baseline row included), crosszone the
// flash crowd spread over 3 availability zones with flat vs
// topology-aware policy (docs/topology.md), multisnap the concurrent
// commit of all instances against a small provider pool, with its
// provider write RPCs per round (docs/perf.md), metaoutage the flash
// crowd with replicated metadata (WithMetaReplicas) while -kill
// metadata providers and one compute rack fail mid-run, against a
// healthy baseline at the same replication (docs/faults.md), sync the
// disconnected-site workflow: an upstream lineage shipped to a
// downstream repository on a disjoint provider pool as one full
// archive plus per-commit deltas (docs/sync.md). -quick
// runs the
// scaled-down parameter set (shapes preserved, absolute values not
// comparable to the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blobvfs/internal/experiments"
	"blobvfs/internal/metrics"
	"blobvfs/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down parameters (fast; shapes only)")
	seed := flag.Int64("seed", 0, "override the experiment seed")
	sweepArg := flag.String("sweep", "", "comma-separated instance counts (default 1,10,30,50,70,90,110)")
	instances := flag.Int("instances", 0, "instance count for fig8/flash/churn/degraded (defaults 100/256/32/256, or 16/64/8/64 with -quick)")
	cycles := flag.Int("cycles", 8, "snapshot cycles for churn")
	keep := flag.Int("keep", 2, "keep-last-K retention window for churn (0 = no retention)")
	kill := flag.Int("kill", 8, "providers killed mid-run for degraded and metaoutage")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vmdeploy [flags] fig4|fig5|fig6|fig7|fig8|flash|churn|degraded|crosszone|multisnap|metaoutage|sync|ablations|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	target := flag.Arg(0)

	p := experiments.Default()
	fig8N := 100
	flashN := 256
	churnN := 32
	crossN := 60 // per zone
	multiN := 256
	if *quick {
		p = experiments.Quick()
		p.MaxInstances = 24
		fig8N = 16
		flashN = 64
		churnN = 8
		crossN = 20
		multiN = 64
	}
	degradedN := flashN
	if *seed != 0 {
		p.Seed = *seed
	}
	if *instances > 0 {
		fig8N = *instances
		flashN = *instances
		churnN = *instances
		degradedN = *instances
		crossN = (*instances + 2) / 3 // total crowd over the 3 zones
		multiN = *instances
	}
	sweep := experiments.DefaultSweep()
	if *quick {
		sweep = []int{1, 4, 8, 16, 24}
	}
	if *sweepArg != "" {
		sweep = nil
		for _, s := range strings.Split(*sweepArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "vmdeploy: bad sweep entry %q\n", s)
				os.Exit(2)
			}
			sweep = append(sweep, n)
		}
	}

	run := func(name string, fn func() []*metrics.Table) {
		start := time.Now()
		tables := fn()
		for _, t := range tables {
			t.Fprint(os.Stdout)
			fmt.Println()
		}
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	fig4 := func() []*metrics.Table { return experiments.RunFig4(p, sweep).Tables() }
	fig5 := func() []*metrics.Table { return experiments.RunFig5(p, sweep).Tables() }
	fig67 := func() []*metrics.Table {
		return experiments.RunFig67(workloads.DefaultBonnieConfig()).Tables()
	}
	fig8 := func() []*metrics.Table {
		return []*metrics.Table{experiments.RunFig8(p, fig8N).Table()}
	}
	flash := func() []*metrics.Table {
		off := experiments.RunFlashCrowd(p, experiments.FlashCrowdConfig{Instances: flashN})
		on := experiments.RunFlashCrowd(p, experiments.FlashCrowdConfig{Instances: flashN, Sharing: true})
		return []*metrics.Table{experiments.FlashCrowdTable([]experiments.FlashCrowdPoint{off, on})}
	}
	churn := func() []*metrics.Table {
		pt := experiments.RunChurn(p, experiments.ChurnConfig{
			Instances: churnN,
			Cycles:    *cycles,
			KeepLast:  *keep,
		})
		tables := []*metrics.Table{experiments.ChurnTable(pt)}
		if *keep > 0 {
			// The unbounded baseline for contrast: same churn, no
			// retention, nothing ever reclaimed.
			base := experiments.RunChurn(p, experiments.ChurnConfig{
				Instances: churnN,
				Cycles:    *cycles,
			})
			tables = append(tables, experiments.ChurnTable(base))
		}
		return tables
	}
	degraded := func() []*metrics.Table {
		const degradedProviders = 16 // RunDegraded's default pool size
		if *kill < 0 || *kill >= degradedProviders {
			fmt.Fprintf(os.Stderr, "vmdeploy: -kill %d out of range [0,%d)\n", *kill, degradedProviders)
			os.Exit(2)
		}
		dc := experiments.DegradedConfig{Instances: degradedN, Sharing: true}
		healthy := experiments.RunDegraded(p, dc)
		dc.Kill = *kill
		hit := experiments.RunDegraded(p, dc)
		return []*metrics.Table{experiments.DegradedTable([]experiments.DegradedPoint{healthy, hit})}
	}
	crosszone := func() []*metrics.Table {
		var pts []experiments.CrossZonePoint
		for _, sharing := range []bool{false, true} {
			for _, aware := range []bool{false, true} {
				pts = append(pts, experiments.RunCrossZone(p, experiments.CrossZoneConfig{
					InstancesPerZone: crossN,
					Aware:            aware,
					Sharing:          sharing,
				}))
			}
		}
		return []*metrics.Table{experiments.CrossZoneTable(pts)}
	}
	metaoutage := func() []*metrics.Table {
		const metaProviders = 16 // RunMetaOutage's default pool size
		if *kill < 0 || *kill >= metaProviders {
			fmt.Fprintf(os.Stderr, "vmdeploy: -kill %d out of range [0,%d)\n", *kill, metaProviders)
			os.Exit(2)
		}
		mc := experiments.MetaOutageConfig{Instances: flashN, Sharing: true}
		healthy := experiments.RunMetaOutage(p, mc)
		mc.KillMeta = *kill
		mc.KillRack = true
		outage := experiments.RunMetaOutage(p, mc)
		return []*metrics.Table{experiments.MetaOutageTable([]experiments.MetaOutagePoint{healthy, outage})}
	}
	multisnap := func() []*metrics.Table {
		pt := experiments.RunMultisnapshot(p, experiments.MultisnapshotConfig{Instances: multiN})
		return []*metrics.Table{experiments.MultisnapshotTable(pt)}
	}
	syncScenario := func() []*metrics.Table {
		pt := experiments.RunSync(p, experiments.SyncConfig{})
		return []*metrics.Table{experiments.SyncTable(pt)}
	}
	ablations := func() []*metrics.Table {
		n := 16
		if !*quick {
			n = 50
		}
		cs := experiments.RunChunkSizeAblation(p, n, []int{64 << 10, 256 << 10, 1 << 20, 4 << 20})
		rep := experiments.RunReplicationAblation(p, n, []int{1, 2, 3})
		return []*metrics.Table{experiments.ChunkSizeTable(cs), experiments.ReplicationTable(rep)}
	}

	switch target {
	case "fig4", "fig4a", "fig4b", "fig4c", "fig4d":
		run("fig4", fig4)
	case "fig5", "fig5a", "fig5b":
		run("fig5", fig5)
	case "fig6", "fig7", "fig67":
		run("fig6/7", fig67)
	case "fig8":
		run("fig8", fig8)
	case "flash":
		run("flash", flash)
	case "churn":
		run("churn", churn)
	case "degraded":
		run("degraded", degraded)
	case "crosszone":
		run("crosszone", crosszone)
	case "multisnap":
		run("multisnap", multisnap)
	case "metaoutage":
		run("metaoutage", metaoutage)
	case "sync":
		run("sync", syncScenario)
	case "ablations":
		run("ablations", ablations)
	case "all":
		run("fig4", fig4)
		run("fig5", fig5)
		run("fig6/7", fig67)
		run("fig8", fig8)
		run("flash", flash)
		run("churn", churn)
		run("degraded", degraded)
		run("crosszone", crosszone)
		run("ablations", ablations)
		run("multisnap", multisnap)
		run("metaoutage", metaoutage)
		run("sync", syncScenario)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
