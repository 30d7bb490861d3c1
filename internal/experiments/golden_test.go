package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobvfs/internal/metrics"
)

// Versioned goldens (ROADMAP 4, "Goldens first"): the tables
// `vmdeploy -quick <scenario>` prints, for the scenarios whose numbers
// a write-path or lifecycle change moves, are pinned in
// testdata/golden/<scenario>.txt. Every column is modelled — the sim is
// deterministic — so the comparison is exact; the wall-clock
// "completed in" line vmdeploy appends is not part of a golden. A
// change that moves a number on purpose re-baselines with
// `make rebaseline` and says which numbers moved, and why, in
// CHANGES.md.

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this run")

// goldenScenarios renders each pinned scenario with the parameters
// `vmdeploy -quick` uses for it.
var goldenScenarios = map[string]func(p Params) []*metrics.Table{
	"fig5": func(p Params) []*metrics.Table {
		return RunFig5(p, []int{1, 4, 8, 16, 24}).Tables()
	},
	"multisnap": func(p Params) []*metrics.Table {
		return []*metrics.Table{MultisnapshotTable(RunMultisnapshot(p, MultisnapshotConfig{Instances: 64}))}
	},
	"churn": func(p Params) []*metrics.Table {
		kept := RunChurn(p, ChurnConfig{Instances: 8, Cycles: 8, KeepLast: 2})
		unbounded := RunChurn(p, ChurnConfig{Instances: 8, Cycles: 8})
		return []*metrics.Table{ChurnTable(kept), ChurnTable(unbounded)}
	},
	"sync": func(p Params) []*metrics.Table {
		return []*metrics.Table{SyncTable(RunSync(p, SyncConfig{}))}
	},
	"flash": func(p Params) []*metrics.Table {
		off := RunFlashCrowd(p, FlashCrowdConfig{Instances: 64})
		on := RunFlashCrowd(p, FlashCrowdConfig{Instances: 64, Sharing: true})
		return []*metrics.Table{FlashCrowdTable([]FlashCrowdPoint{off, on})}
	},
	// The three fault scenarios pin pick order and sweep order of the
	// replica sets: their failover and re-replication counters move if
	// either tier walks its ring differently.
	"degraded": func(p Params) []*metrics.Table {
		dc := DegradedConfig{Instances: 64, Sharing: true}
		healthy := RunDegraded(p, dc)
		dc.Kill = 8
		return []*metrics.Table{DegradedTable([]DegradedPoint{healthy, RunDegraded(p, dc)})}
	},
	"metaoutage": func(p Params) []*metrics.Table {
		mc := MetaOutageConfig{Instances: 64, Sharing: true}
		healthy := RunMetaOutage(p, mc)
		mc.KillMeta, mc.KillRack = 8, true
		return []*metrics.Table{MetaOutageTable([]MetaOutagePoint{healthy, RunMetaOutage(p, mc)})}
	},
	"crosszone": func(p Params) []*metrics.Table {
		var pts []CrossZonePoint
		for _, sharing := range []bool{false, true} {
			for _, aware := range []bool{false, true} {
				pts = append(pts, RunCrossZone(p, CrossZoneConfig{InstancesPerZone: 20, Aware: aware, Sharing: sharing}))
			}
		}
		return []*metrics.Table{CrossZoneTable(pts)}
	},
}

func TestGoldenTables(t *testing.T) {
	p := Quick()
	p.MaxInstances = 24
	for name, render := range goldenScenarios {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			for _, tab := range render(p) {
				tab.Fprint(&b)
				b.WriteByte('\n')
			}
			got := b.String()
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (create it with `make rebaseline`)", err)
			}
			if got != string(want) {
				t.Errorf("%s moved; if that is intended, run `make rebaseline` and put the before/after with its reason in CHANGES.md\n--- want\n%s--- got\n%s", name, want, got)
			}
		})
	}
}
