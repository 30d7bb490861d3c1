package experiments

import "testing"

func TestChunkSizeAblationShowsTradeoff(t *testing.T) {
	p := Quick()
	p.MaxInstances = 16
	pts := RunChunkSizeAblation(p, 16, []int{16 << 10, 256 << 10, 4 << 20})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	small, mid, big := pts[0], pts[1], pts[2]
	// Small chunks pay per-request overhead: slower than the default.
	if small.Completion <= mid.Completion {
		t.Errorf("16K chunks (%.2f s) not slower than 256K (%.2f s)", small.Completion, mid.Completion)
	}
	// Huge chunks waste bandwidth: much more traffic than the default.
	if big.TrafficGB <= mid.TrafficGB*1.3 {
		t.Errorf("4M chunks traffic %.3f GB not ≫ 256K's %.3f GB", big.TrafficGB, mid.TrafficGB)
	}
	// And they also slow the boot down (false sharing / excess transfer).
	if big.Completion <= mid.Completion {
		t.Errorf("4M chunks (%.2f s) not slower than 256K (%.2f s)", big.Completion, mid.Completion)
	}
}

func TestReplicationAblationFaultTolerance(t *testing.T) {
	p := Quick()
	p.MaxInstances = 8
	pts := RunReplicationAblation(p, 8, []int{1, 2})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].SurvivesOne {
		t.Error("replication 1 survived a provider loss")
	}
	if !pts[1].SurvivesOne {
		t.Error("replication 2 did not survive a provider loss")
	}
	if pts[1].StorageGB <= pts[0].StorageGB*1.5 {
		t.Errorf("replication 2 storage %.3f GB not ~2x of %.3f GB", pts[1].StorageGB, pts[0].StorageGB)
	}
	// Writing replicas costs more during deployment-time fetch? Reads
	// pick one replica, so completion should be in the same ballpark.
	if pts[1].Completion > pts[0].Completion*2 {
		t.Errorf("replication 2 completion %.2f ≫ replication 1 %.2f", pts[1].Completion, pts[0].Completion)
	}
}
