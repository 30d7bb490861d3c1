package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"blobvfs/internal/cluster"
	"blobvfs/internal/experiments"
	"blobvfs/internal/middleware"
)

// anchorSeed is the seed the recorded scenarios ran with.
const anchorSeed = 42

// The recorded numbers the rebuilt workloads must reproduce at seed 42.
// They were read once from the tree's BENCH_scale.json and
// BENCH_metaoutage.json and from runs of internal/experiments, and live
// here so that those files can go without taking the anchors with them.
// Seconds are recorded to four significant digits, traffic to the MB.
var recorded = []struct {
	workload  string
	instances int // 0: the workload's own size
	want      []quantity
}{
	{"crowd-p2p", 1024, []quantity{
		{"completion_s", 152.2}, {"traffic_mb", 31_542}, {"sim.steps", 5_819_995},
		{"blob.provider.reads", 20_242}, {"p2p.peer_hits", 89_326}, {"booted", 1024},
	}},
	{"crowd-p2p", 0, []quantity{
		{"completion_s", 85.58}, {"traffic_mb", 15_110}, {"sim.steps", 1_858_644}, {"booted", 512},
	}},
	{"paper-deploy", 0, []quantity{{"completion_s", 33.43}, {"booted", 110}}},
	{"crowd-faults", 0, []quantity{
		{"completion_s", 34.28}, {"booted", 256}, {"blob.meta.failovers", 16_986}, {"blob.meta.failed_gets", 0},
	}},
}

type quantity struct {
	name string
	want float64
}

// anchorValue reads one anchored quantity out of a rep, rounded the way
// it was recorded.
func anchorValue(r *rep, name string) float64 {
	switch name {
	case "completion_s":
		p := math.Pow(10, 3-math.Floor(math.Log10(r.completionS)))
		return math.Round(r.completionS*p) / p
	case "traffic_mb":
		return math.Round(float64(r.trafficB) / 1e6)
	case "booted":
		return float64(r.attempted - r.failed)
	}
	return r.layer[name]
}

// runAnchors proves the rebuilt scenarios are the recorded ones: each
// sim workload must give the recorded numbers, and paper-deploy and
// round 1 of snapshot-herd must equal, to the last digit, what
// internal/experiments computes for the same point today.
func runAnchors() error {
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	check := func(what, name string, got, want float64) {
		verdict := "ok"
		if got != want {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\n", what, name, got, want, verdict)
	}
	fmt.Fprintln(tw, "scenario\tquantity\tgot\twant\t")
	reps := make(map[string]*rep)
	for _, a := range recorded {
		w, err := workloadByName(a.workload)
		if err != nil {
			return err
		}
		what := w.name
		if a.instances > 0 {
			w.instances = a.instances
			what = fmt.Sprintf("%s@%d", w.name, a.instances)
		}
		r, err := w.rep(anchorSeed, nil)
		if err != nil {
			return err
		}
		reps[what] = r
		for _, q := range a.want {
			check(what, q.name, anchorValue(r, q.name), q.want)
		}
	}

	// paper-deploy against experiments' Fig. 4 point.
	p := experiments.Default()
	env := experiments.NewEnv(p, 110, experiments.OurApproach)
	var dep *middleware.DeployResult
	var err error
	env.Run(func(ctx *cluster.Ctx) { dep, err = env.Orch.Deploy(ctx) })
	if err != nil {
		return err
	}
	mine := reps["paper-deploy"]
	check("paper-deploy = experiments fig4", "completion_s", mine.completionS, dep.Completion)
	check("paper-deploy = experiments fig4", "traffic bytes", float64(mine.trafficB), float64(env.Fab.NetTraffic()))
	var theirs []float64
	for _, inst := range dep.Instances {
		theirs = append(theirs, inst.ProvisionTime+inst.BootTime)
	}
	check("paper-deploy = experiments fig4", "op_p50_s", quantile(mine.ops, 0.5), quantile(theirs, 0.5))
	check("paper-deploy = experiments fig4", "op_p90_s", quantile(mine.ops, 0.9), quantile(theirs, 0.9))

	// snapshot-herd round 1 against experiments' Fig. 5 point.
	w, err := workloadByName("snapshot-herd")
	if err != nil {
		return err
	}
	herd, err := w.rep(anchorSeed, nil)
	if err != nil {
		return err
	}
	fig5 := experiments.RunFig5(p, []int{110}).Series[experiments.OurApproach][0]
	check("snapshot-herd round 1 = experiments fig5", "completion_s", herd.round1CompletionS, fig5.Completion)
	check("snapshot-herd round 1 = experiments fig5", "mean snapshot s", herd.round1MeanS, fig5.AvgTime)

	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("anchors: %d quantities differ from the recorded scenarios", bad)
	}
	return nil
}
