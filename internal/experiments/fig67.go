package experiments

import (
	"blobvfs/internal/localio"
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
