package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/workloads"
)

// Sizes holds what a run of the suite may vary besides Params: the
// instance counts of each scenario and the churn and fault knobs
// vmdeploy exposes as flags.
type Sizes struct {
	Sweep     []int // fig4, fig5: the instance counts of the x axis
	Fig8      int
	Crowd     int // flash, degraded, metaoutage
	PerZone   int // crosszone: instances in each zone
	Churn     int
	Multisnap int
	Ablations int

	Cycles int // churn: snapshot cycles
	Keep   int // churn: keep-last-K retention window (0 = no retention)
	Kill   int // degraded, metaoutage: providers killed mid-run
}

// DefaultSizes returns the paper-scale sizes (use with Default).
func DefaultSizes() Sizes {
	return Sizes{
		Sweep: []int{1, 10, 30, 50, 70, 90, 110},
		Fig8:  100, Crowd: 256, PerZone: 60, Churn: 32, Multisnap: 256, Ablations: 50,
		Cycles: 8, Keep: 2, Kill: 8,
	}
}

// QuickSizes returns the scaled-down sizes `vmdeploy -quick` runs and
// the goldens pin (use with Quick and MaxInstances 24).
func QuickSizes() Sizes {
	return Sizes{
		Sweep: []int{1, 4, 8, 16, 24},
		Fig8:  16, Crowd: 64, PerZone: 20, Churn: 8, Multisnap: 64, Ablations: 16,
		Cycles: 8, Keep: 2, Kill: 8,
	}
}

// WithInstances returns s with every single-size scenario but the
// ablations set to a crowd of n; crosszone splits n over its zones,
// rounding up.
func (s Sizes) WithInstances(n int) Sizes {
	s.Fig8, s.Crowd, s.Churn, s.Multisnap = n, n, n, n
	s.PerZone = (n + crossZones - 1) / crossZones
	return s
}

// Validate rejects sizes a scenario would panic on, checked against
// the constants the scenarios own.
func (s Sizes) Validate() error {
	for _, n := range append([]int{s.Fig8, s.Crowd, s.PerZone, s.Churn, s.Multisnap, s.Ablations}, s.Sweep...) {
		if n < 1 {
			return fmt.Errorf("instance count %d: need at least one", n)
		}
	}
	if s.Cycles < 1 {
		return fmt.Errorf("%d churn cycles: need at least one", s.Cycles)
	}
	if s.Keep < 0 {
		return fmt.Errorf("retention window %d: need 0 (off) or more", s.Keep)
	}
	if pool := min(degradedCrowd.Providers, metaOutageCrowd.Providers); s.Kill < 0 || s.Kill >= pool {
		return fmt.Errorf("kill count %d out of range [0,%d)", s.Kill, pool)
	}
	return nil
}

// Scenario is one entry of the suite: a name and the tables it prints.
type Scenario struct {
	Name   string
	Tables func(p Params, s Sizes) []*metrics.Table
}

// Fprint runs the scenario and prints each of its tables to w, each
// followed by a blank line: what vmdeploy prints and the goldens pin.
func (sc Scenario) Fprint(w io.Writer, p Params, s Sizes) {
	for _, t := range sc.Tables(p, s) {
		t.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Suite lists every scenario in the order `vmdeploy all` prints them.
// vmdeploy selects from it by name and the goldens
// (testdata/golden/<name>.txt) pin each entry's tables at QuickSizes.
var Suite = []Scenario{
	{"fig4", func(p Params, s Sizes) []*metrics.Table {
		r := RunFig4(p, s.Sweep)
		panel := func(title string, cell func(Fig4Point) string) *metrics.Table {
			return sweepPanel(title, s.Sweep,
				seriesCol(TaktukPreprop.String(), r.Series[TaktukPreprop], cell),
				seriesCol(QcowOverPVFS.String(), r.Series[QcowOverPVFS], cell),
				seriesCol(OurApproach.String(), r.Series[OurApproach], cell),
				seriesCol("our approach, p2p sharing", r.Shared, cell),
			)
		}
		// Fig. 4(c): the speedup of our approach's completion time over a.
		speedup := func(name string, a Approach) col[int] {
			return col[int]{name, func(i int) string {
				return ftoa(r.Series[a][i].Completion / r.Series[OurApproach][i].Completion)
			}}
		}
		return []*metrics.Table{
			panel("Fig 4(a): average time to boot per instance (s)", func(pt Fig4Point) string { return ftoa(pt.AvgBoot) }),
			panel("Fig 4(b): completion time to boot all instances (s)", func(pt Fig4Point) string { return ftoa(pt.Completion) }),
			sweepPanel("Fig 4(c): speedup of completion time for our approach", s.Sweep,
				speedup("speedup vs. taktuk", TaktukPreprop),
				speedup("speedup vs. qcow2 over PVFS", QcowOverPVFS),
			),
			panel("Fig 4(d): total network traffic (GB)", func(pt Fig4Point) string { return ftoa(pt.TrafficGB) }),
		}
	}},
	{"fig5", func(p Params, s Sizes) []*metrics.Table {
		r := RunFig5(p, s.Sweep)
		panel := func(title string, cell func(Fig5Point) string) *metrics.Table {
			return sweepPanel(title, s.Sweep,
				seriesCol(QcowOverPVFS.String(), r.Series[QcowOverPVFS], cell),
				seriesCol(OurApproach.String(), r.Series[OurApproach], cell),
			)
		}
		return []*metrics.Table{
			panel("Fig 5(a): average time to snapshot an instance (s)", func(pt Fig5Point) string { return fmt.Sprintf("%.3f", pt.AvgTime) }),
			panel("Fig 5(b): completion time to snapshot all instances (s)", func(pt Fig5Point) string { return fmt.Sprintf("%.3f", pt.Completion) }),
		}
	}},
	{"fig67", func(Params, Sizes) []*metrics.Table {
		r := RunFig67(workloads.DefaultBonnieConfig())
		// One row per bar pair: a Bonnie++ metric on both paths.
		bars := func(title, metric string, names []string, local, ours []int64) *metrics.Table {
			return table(title, []int{0, 1, 2},
				seriesCol(metric, names, func(n string) string { return n }),
				seriesCol("local", local, i64),
				seriesCol("our-approach", ours, i64),
			)
		}
		l, o := r.Local, r.Ours
		return []*metrics.Table{
			bars("Fig 6: Bonnie++ sustained throughput (KB/s), 8K blocks", "access pattern", []string{"BlockW", "BlockR", "BlockO"},
				[]int64{l.BlockWriteKBps, l.BlockReadKBps, l.BlockRewrKBps}, []int64{o.BlockWriteKBps, o.BlockReadKBps, o.BlockRewrKBps}),
			bars("Fig 7: Bonnie++ operations per second", "operation type", []string{"RndSeek", "CreatF", "DelF"},
				[]int64{l.SeeksPerSec, l.CreatesPerSec, l.DeletesPerSec}, []int64{o.SeeksPerSec, o.CreatesPerSec, o.DeletesPerSec}),
		}
	}},
	{"fig8", func(p Params, s Sizes) []*metrics.Table {
		r := RunFig8(p, s.Fig8)
		settings := []map[Approach]float64{r.Uninterrupted, r.SuspendResume}
		cols := []col[int]{seriesCol("setting", []string{"Uninterrupted", "Suspend/Resume"}, func(n string) string { return n })}
		for _, a := range []Approach{TaktukPreprop, QcowOverPVFS, OurApproach} {
			cols = append(cols, seriesCol(a.String(), settings, func(c map[Approach]float64) string {
				if v, ok := c[a]; ok {
					return ftoa(v)
				}
				return "-" // prepropagation has no suspend/resume bar
			}))
		}
		return []*metrics.Table{table(fmt.Sprintf("Fig 8: Monte Carlo completion time (s), %d instances", s.Fig8), []int{0, 1}, cols...)}
	}},
	{"flash", func(p Params, s Sizes) []*metrics.Table {
		return []*metrics.Table{table("Flash crowd: concurrent multideployment against a small provider pool", []CrowdPoint{
			RunFlashCrowd(p, Crowd{Instances: s.Crowd}),
			RunFlashCrowd(p, Crowd{Instances: s.Crowd, Sharing: true}),
		}, crowdInstances, crowdProviders, crowdSharing, crowdCompletion, crowdProviderReads, crowdHottest, crowdPeerReads)}
	}},
	{"churn", func(p Params, s Sizes) []*metrics.Table {
		churnTable := func(pt ChurnPoint) *metrics.Table {
			retention := fmt.Sprintf("keep-last-%d retention (p2p sharing off)", pt.KeepLast)
			if pt.KeepLast == 0 {
				retention = "no retention (unbounded baseline)"
			}
			return table(fmt.Sprintf("Churn: %d instances × %d snapshot cycles, %s", pt.Instances, pt.Cycles, retention), pt.PerCycle,
				col[ChurnCycle]{"cycle", func(c ChurnCycle) string { return itoa(c.Cycle) }},
				col[ChurnCycle]{"live chunks", func(c ChurnCycle) string { return itoa(c.Chunks) }},
				col[ChurnCycle]{"stored (MB)", func(c ChurnCycle) string { return ftoa(c.StoredMB) }},
				col[ChurnCycle]{"meta nodes", func(c ChurnCycle) string { return itoa(c.MetaNodes) }},
				col[ChurnCycle]{"reclaimed chunks (cum)", func(c ChurnCycle) string { return i64(c.Reclaimed) }},
				col[ChurnCycle]{"retired versions", func(c ChurnCycle) string { return itoa(c.Retired) }},
			)
		}
		cc := ChurnConfig{Instances: s.Churn, Cycles: s.Cycles, KeepLast: s.Keep}
		tables := []*metrics.Table{churnTable(RunChurn(p, cc))}
		if s.Keep > 0 {
			// The unbounded baseline for contrast: same churn, no
			// retention, nothing ever reclaimed.
			cc.KeepLast = 0
			tables = append(tables, churnTable(RunChurn(p, cc)))
		}
		return tables
	}},
	{"degraded", func(p Params, s Sizes) []*metrics.Table {
		return []*metrics.Table{table("Degraded deployment: flash crowd while providers fail mid-run", []CrowdPoint{
			RunDegraded(p, Crowd{Instances: s.Crowd, Sharing: true}),
			RunDegraded(p, Crowd{Instances: s.Crowd, Sharing: true, Kill: s.Kill}),
		},
			crowdInstances,
			crowdProviders,
			col[CrowdPoint]{"killed", func(pt CrowdPoint) string { return itoa(pt.Kill) }},
			crowdBooted,
			crowdCompletion,
			col[CrowdPoint]{"failovers", func(pt CrowdPoint) string { return i64(pt.Failovers) }},
			col[CrowdPoint]{"re-replicated", func(pt CrowdPoint) string { return i64(pt.Rereplicated) }},
			col[CrowdPoint]{"failed fetches", func(pt CrowdPoint) string { return i64(pt.FailedFetches) }},
			crowdPeerReads,
		)}
	}},
	{"crosszone", func(p Params, s Sizes) []*metrics.Table {
		var pts []CrowdPoint
		for _, sharing := range []bool{false, true} {
			for _, aware := range []bool{false, true} {
				pts = append(pts, RunCrossZone(p, Crowd{Instances: crossZones * s.PerZone, Aware: aware, Sharing: sharing}))
			}
		}
		// Flat vs aware over the same fabric; the cross-zone column is
		// the headline.
		return []*metrics.Table{table("Cross-zone flash crowd: one image deployed over zoned fabric, flat policy vs topology-aware", pts,
			col[CrowdPoint]{"zones", func(pt CrowdPoint) string { return itoa(pt.Zones) }},
			col[CrowdPoint]{"inst/zone", func(pt CrowdPoint) string { return itoa(pt.Instances / pt.Zones) }},
			col[CrowdPoint]{"aware", func(pt CrowdPoint) string { return onOff(pt.Aware) }},
			crowdSharing,
			crowdCompletion,
			col[CrowdPoint]{"cross-zone (GB)", func(pt CrowdPoint) string { return gbs(pt.TierBytes[cluster.TierRemote]) }},
			col[CrowdPoint]{"zone-local (GB)", func(pt CrowdPoint) string { return gbs(pt.TierBytes[cluster.TierZone]) }},
			col[CrowdPoint]{"rack-local (GB)", func(pt CrowdPoint) string { return gbs(pt.TierBytes[cluster.TierRack]) }},
			crowdProviderReads,
			crowdHottest,
			crowdPeerReads,
		)}
	}},
	{"ablations", func(p Params, s Sizes) []*metrics.Table {
		cs := RunChunkSizeAblation(p, s.Ablations, []int{64 << 10, 256 << 10, 1 << 20, 4 << 20})
		rep := RunReplicationAblation(p, s.Ablations, []int{1, 2, 3})
		return []*metrics.Table{
			table("Ablation: chunk size trade-off (§3.1.3), our approach", cs,
				col[ChunkSizePoint]{"chunk size (KB)", func(pt ChunkSizePoint) string { return itoa(pt.ChunkSize >> 10) }},
				col[ChunkSizePoint]{"avg boot (s)", func(pt ChunkSizePoint) string { return ftoa(pt.AvgBoot) }},
				col[ChunkSizePoint]{"completion (s)", func(pt ChunkSizePoint) string { return ftoa(pt.Completion) }},
				col[ChunkSizePoint]{"traffic (GB)", func(pt ChunkSizePoint) string { return fmt.Sprintf("%.3f", pt.TrafficGB) }},
			),
			table("Ablation: replication degree (§3.1.3), our approach", rep,
				col[ReplicationPoint]{"replicas", func(pt ReplicationPoint) string { return itoa(pt.Replicas) }},
				col[ReplicationPoint]{"deploy completion (s)", func(pt ReplicationPoint) string { return ftoa(pt.Completion) }},
				col[ReplicationPoint]{"raw storage (GB)", func(pt ReplicationPoint) string { return fmt.Sprintf("%.3f", pt.StorageGB) }},
				col[ReplicationPoint]{"survives provider loss", func(pt ReplicationPoint) string { return yesNo(pt.SurvivesOne) }},
			),
		}
	}},
	{"multisnap", func(p Params, s Sizes) []*metrics.Table {
		rpcs := func(v float64) string { return fmt.Sprintf("%.0f", v) }
		pt := RunMultisnapshot(p, s.Multisnap)
		return []*metrics.Table{table("Multisnapshot write path: provider write RPCs per commit round", []MultisnapshotPoint{pt},
			col[MultisnapshotPoint]{"instances", func(m MultisnapshotPoint) string { return itoa(m.Instances) }},
			col[MultisnapshotPoint]{"providers", func(MultisnapshotPoint) string { return itoa(multisnapshotProviders) }},
			col[MultisnapshotPoint]{"chunk writes", func(m MultisnapshotPoint) string { return rpcs(m.ChunkWrites) }},
			col[MultisnapshotPoint]{"chunk-put RPCs", func(m MultisnapshotPoint) string { return rpcs(m.ChunkPutRPCs) }},
			col[MultisnapshotPoint]{"meta-put RPCs", func(m MultisnapshotPoint) string { return rpcs(m.MetaPutRPCs) }},
			col[MultisnapshotPoint]{"write RPCs", func(m MultisnapshotPoint) string { return rpcs(m.WriteRPCs) }},
			col[MultisnapshotPoint]{"completion (s)", func(m MultisnapshotPoint) string { return ftoa(m.Completion) }},
		)}
	}},
	{"metaoutage", func(p Params, s Sizes) []*metrics.Table {
		pts := []CrowdPoint{
			RunMetaOutage(p, Crowd{Instances: s.Crowd, Sharing: true}),
			RunMetaOutage(p, Crowd{Instances: s.Crowd, Sharing: true, Kill: s.Kill, KillRack: true}),
		}
		// The first row is the healthy baseline the delta column is
		// computed against.
		return []*metrics.Table{table("Metadata outage: flash crowd with replicated metadata while metadata providers and a rack fail", pts,
			crowdInstances,
			col[CrowdPoint]{"meta replicas", func(pt CrowdPoint) string { return itoa(pt.MetaReplicas) }},
			col[CrowdPoint]{"killed meta", func(pt CrowdPoint) string { return itoa(pt.Kill) }},
			col[CrowdPoint]{"rack killed", func(pt CrowdPoint) string { return yesNo(pt.KillRack) }},
			crowdBooted,
			crowdCompletion,
			col[CrowdPoint]{"delta (s)", func(pt CrowdPoint) string { return ftoa(pt.Completion - pts[0].Completion) }},
			col[CrowdPoint]{"meta failovers", func(pt CrowdPoint) string { return i64(pt.MetaFailovers) }},
			col[CrowdPoint]{"meta re-replicated", func(pt CrowdPoint) string { return i64(pt.MetaRereplicated) }},
			col[CrowdPoint]{"failed descents", func(pt CrowdPoint) string { return i64(pt.FailedDescents) }},
		)}
	}},
	{"sync", func(p Params, s Sizes) []*metrics.Table {
		pt := RunSync(p)
		// The per-round shipping trace, closed by the average delta
		// round when there was one.
		rows := pt.PerRound
		if pt.Reduction > 0 {
			rows = append(slices.Clip(rows), SyncRound{Stage: "avg delta", Chunks: pt.ShippedChunks,
				ShippedMB: pt.AvgDeltaMB, FullMB: pt.FullMB, Reduction: pt.Reduction})
		}
		return []*metrics.Table{table(fmt.Sprintf(
			"Differential sync: %.0f MB image, %d delta rounds, disjoint %d-provider pools",
			pt.ImageMB, syncRounds, syncProviders), rows,
			col[SyncRound]{"stage", func(r SyncRound) string { return r.Stage }},
			col[SyncRound]{"versions", func(r SyncRound) string {
				if r.Versions == 0 {
					return "" // the average row: no archive of its own
				}
				return itoa(r.Versions)
			}},
			col[SyncRound]{"chunks shipped", func(r SyncRound) string { return itoa(r.Chunks) }},
			col[SyncRound]{"shipped (MB)", func(r SyncRound) string { return ftoa(r.ShippedMB) }},
			col[SyncRound]{"full ship (MB)", func(r SyncRound) string { return ftoa(r.FullMB) }},
			col[SyncRound]{"reduction", func(r SyncRound) string {
				if r.Stage == "full" || r.Reduction <= 0 {
					return ""
				}
				return fmt.Sprintf("%.1fx", r.Reduction)
			}},
		)}
	}},
}

// col is one column of a scenario table: its header and how one row
// renders in it.
type col[T any] struct {
	name string
	cell func(T) string
}

// table renders one row per element of rows under cols. It is the one
// place the package builds a metrics.Table: a scenario's table is the
// column list it passes here.
func table[T any](title string, rows []T, cols ...col[T]) *metrics.Table {
	t := &metrics.Table{Title: title}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.name)
	}
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = c.cell(r)
		}
		t.AddRow(cells...)
	}
	return t
}

// sweepPanel renders one panel of a sweep figure (Fig. 4, Fig. 5): one
// row per sweep point, an instances column, then one column per
// series, each of which renders sweep point i.
func sweepPanel(title string, sweep []int, series ...col[int]) *metrics.Table {
	points := make([]int, len(sweep))
	for i := range points {
		points[i] = i
	}
	instances := col[int]{"instances", func(i int) string { return itoa(sweep[i]) }}
	return table(title, points, append([]col[int]{instances}, series...)...)
}

// seriesCol is one series of a sweep panel: row i renders pts[i].
func seriesCol[P any](name string, pts []P, cell func(P) string) col[int] {
	return col[int]{name, func(i int) string { return cell(pts[i]) }}
}

// Table cell helpers shared by every scenario's table.

func itoa(v int) string { return strconv.Itoa(v) }

func i64(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string {
	if math.Round(v*100) == 0 {
		v = 0 // what rounds to zero prints 0.00, never -0.00
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// gbs renders a byte count as GB with table precision.
func gbs(b int64) string { return ftoa(float64(b) / 1e9) }

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
