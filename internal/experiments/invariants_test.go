package experiments

import "testing"

// TestFlashCrowdDeterministicUnderPooling runs the same 1k-instance
// flash crowd twice and demands bit-identical results — same event
// count, same completion times, same traffic and sharing stats. The
// sim core recycles events, worker goroutines, waiter buffers and
// flows through free lists and recomputes flow rates incrementally;
// this pins that none of that reuse ever changes event ordering.
func TestFlashCrowdDeterministicUnderPooling(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 192
	}
	p := Quick()
	fc := Crowd{Instances: instances, Providers: 8, Sharing: true}
	a := RunFlashCrowd(p, fc)
	b := RunFlashCrowd(p, fc)
	if a.Booted != instances {
		t.Fatalf("first run booted %d of %d instances", a.Booted, instances)
	}
	if a.Steps == 0 {
		t.Fatal("run reported zero simulator steps")
	}
	if a != b {
		t.Errorf("identical runs diverged:\n first: %+v\nsecond: %+v", a, b)
	}
	if a.Steps != b.Steps {
		t.Errorf("event counts diverged: %d vs %d steps", a.Steps, b.Steps)
	}
	if a.Completion != b.Completion {
		t.Errorf("completion diverged: %v vs %v", a.Completion, b.Completion)
	}
}
