package experiments

import (
	"blobvfs/internal/localio"
	"blobvfs/internal/metrics"
	"blobvfs/internal/workloads"
)

// Fig67Result holds the Bonnie++ comparison of §5.4 for both local
// I/O paths.
type Fig67Result struct {
	Local, Ours workloads.BonnieResult
}

// RunFig67 executes the Bonnie++ benchmark of §5.4 against the
// hypervisor-direct path and the FUSE+mmap mirror path. Since the
// workload writes its data before reading it back, no remote accesses
// are involved and a single instance characterizes all (§5.4).
func RunFig67(cfg workloads.BonnieConfig) *Fig67Result {
	return &Fig67Result{
		Local: workloads.RunBonnie(localio.DirectPath(), cfg),
		Ours:  workloads.RunBonnie(localio.MirrorPath(), cfg),
	}
}

// bonnieRow is one bar pair of Fig. 6 or Fig. 7: a Bonnie++ metric on
// both paths.
type bonnieRow struct {
	name        string
	local, ours int64
}

// Tables renders Fig. 6 (throughput) and Fig. 7 (operations/s).
func (r *Fig67Result) Tables() []*metrics.Table {
	cols := func(metric string) []col[bonnieRow] {
		return []col[bonnieRow]{
			{metric, func(b bonnieRow) string { return b.name }},
			{"local", func(b bonnieRow) string { return i64(b.local) }},
			{"our-approach", func(b bonnieRow) string { return i64(b.ours) }},
		}
	}
	l, o := r.Local, r.Ours
	return []*metrics.Table{
		table("Fig 6: Bonnie++ sustained throughput (KB/s), 8K blocks", []bonnieRow{
			{"BlockW", l.BlockWriteKBps, o.BlockWriteKBps},
			{"BlockR", l.BlockReadKBps, o.BlockReadKBps},
			{"BlockO", l.BlockRewrKBps, o.BlockRewrKBps},
		}, cols("access pattern")...),
		table("Fig 7: Bonnie++ operations per second", []bonnieRow{
			{"RndSeek", l.SeeksPerSec, o.SeeksPerSec},
			{"CreatF", l.CreatesPerSec, o.CreatesPerSec},
			{"DelF", l.DeletesPerSec, o.DeletesPerSec},
		}, cols("operation type")...),
	}
}
