package experiments

import (
	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
)

// Fig4Point is one sweep point of the multideployment experiment for
// one approach.
type Fig4Point struct {
	AvgBoot    float64 // Fig. 4(a): mean per-instance boot time (s)
	Completion float64 // Fig. 4(b): time to boot all instances (s)
	TrafficGB  float64 // Fig. 4(d): total network traffic (GB)
}

// Fig4Result holds the full multideployment sweep: point i of a
// series ran the sweep's i-th instance count.
type Fig4Result struct {
	Series map[Approach][]Fig4Point
	Shared []Fig4Point // OurApproach with p2p sharing on (§7 in §5.2's terms)
}

// RunFig4 executes the multideployment experiment of §5.2 over the
// sweep for all three approaches, and for ours with sharing on.
func RunFig4(p Params, sweep []int) *Fig4Result {
	res := &Fig4Result{Series: make(map[Approach][]Fig4Point)}
	for _, a := range []Approach{TaktukPreprop, QcowOverPVFS, OurApproach} {
		for _, n := range sweep {
			res.Series[a] = append(res.Series[a], runFig4Point(p, n, a))
		}
	}
	for _, n := range sweep {
		res.Shared = append(res.Shared, runFig4Point(p, n, OurApproach, sharingOption(true)...))
	}
	return res
}

func runFig4Point(p Params, n int, a Approach, opts ...blobvfs.Option) Fig4Point {
	env := NewEnv(p, n, a, opts...)
	var dep *middleware.DeployResult
	env.Run(func(ctx *cluster.Ctx) { dep = env.deploy(ctx) })
	return Fig4Point{
		AvgBoot:    metrics.Summarize(dep.BootTimes()).Mean,
		Completion: dep.Completion,
		TrafficGB:  float64(env.Fab.NetTraffic()) / 1e9,
	}
}
