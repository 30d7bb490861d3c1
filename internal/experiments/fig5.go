package experiments

import (
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// Fig5Point is one sweep point of the multisnapshotting experiment.
type Fig5Point struct {
	AvgTime    float64 // Fig. 5(a): mean per-instance snapshot time (s)
	Completion float64 // Fig. 5(b): time until all snapshots done (s)
}

// Fig5Result holds the multisnapshotting sweep, point i of a series at
// the sweep's i-th instance count. Prepropagation is excluded, exactly
// as in the paper ("it is infeasible to copy back ... the whole set of
// full VM images", §5.3).
type Fig5Result struct {
	Series map[Approach][]Fig5Point
}

// RunFig5 executes the multisnapshotting experiment of §5.3: every
// instance carries ~15 MB of local modifications, and all snapshots
// are triggered at the same instant (CLONE broadcast followed by
// COMMIT for our approach; concurrent qcow2 file copies to PVFS for
// the baseline).
func RunFig5(p Params, sweep []int) *Fig5Result {
	res := &Fig5Result{Series: make(map[Approach][]Fig5Point)}
	for _, a := range []Approach{QcowOverPVFS, OurApproach} {
		for _, n := range sweep {
			res.Series[a] = append(res.Series[a], runFig5Point(p, n, a))
		}
	}
	return res
}

func runFig5Point(p Params, n int, a Approach) Fig5Point {
	env := NewEnv(p, n, a)
	var snap *middleware.SnapshotResult
	env.Run(func(ctx *cluster.Ctx) {
		// Provision all instances and apply the local modifications;
		// this phase is not part of the measured snapshot time.
		instances := env.provisionAll(ctx, sim.NewRNG(p.Seed+7))
		var err error
		snap, err = env.Orch.SnapshotAll(ctx, instances)
		if err != nil {
			panic(err)
		}
	})
	return Fig5Point{
		AvgTime:    metrics.Summarize(snap.Times).Mean,
		Completion: snap.Completion,
	}
}
