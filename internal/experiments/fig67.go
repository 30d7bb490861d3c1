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

// Tables renders Fig. 6 (throughput) and Fig. 7 (operations/s).
func (r *Fig67Result) Tables() []*metrics.Table {
	fig6 := &metrics.Table{
		Title:   "Fig 6: Bonnie++ sustained throughput (KB/s), 8K blocks",
		Columns: []string{"access pattern", "local", "our-approach"},
	}
	fig6.AddRow("BlockW", i64(r.Local.BlockWriteKBps), i64(r.Ours.BlockWriteKBps))
	fig6.AddRow("BlockR", i64(r.Local.BlockReadKBps), i64(r.Ours.BlockReadKBps))
	fig6.AddRow("BlockO", i64(r.Local.BlockRewrKBps), i64(r.Ours.BlockRewrKBps))

	fig7 := &metrics.Table{
		Title:   "Fig 7: Bonnie++ operations per second",
		Columns: []string{"operation type", "local", "our-approach"},
	}
	fig7.AddRow("RndSeek", i64(r.Local.SeeksPerSec), i64(r.Ours.SeeksPerSec))
	fig7.AddRow("CreatF", i64(r.Local.CreatesPerSec), i64(r.Ours.CreatesPerSec))
	fig7.AddRow("DelF", i64(r.Local.DeletesPerSec), i64(r.Ours.DeletesPerSec))
	return []*metrics.Table{fig6, fig7}
}
