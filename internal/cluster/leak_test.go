package cluster

import (
	"runtime"
	"testing"
	"time"
)

// herd runs eight concurrent activities on a new sim fabric and returns
// the fabric.
func herd() *Sim {
	fab := NewSim(DefaultConfig(4))
	fab.Run(func(ctx *Ctx) {
		var tasks []Task
		for n := 0; n < 8; n++ {
			tasks = append(tasks, ctx.Go("work", NodeID(n%4), func(cc *Ctx) { cc.Sleep(1) }))
		}
		ctx.WaitAll(tasks)
	})
	return fab
}

// TestDroppedSimFabricsLeaveNoGoroutines: a sim fabric has no Close, so
// what it starts must not pile up behind it. The goroutines of its
// activities go back to the process-wide pool, where the next fabric
// finds them, and a parked one references no fabric: every fabric a
// process ever built used to stay reachable through them, 17 goroutines
// per 8-instance deployment.
func TestDroppedSimFabricsLeaveNoGoroutines(t *testing.T) {
	herd()
	base := runtime.NumGoroutine()
	freed := make(chan struct{}, 20)
	for i := 0; i < 20; i++ {
		runtime.SetFinalizer(herd(), func(*Sim) { freed <- struct{}{} })
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 21 fabrics, %d after the first", n, base)
	}
	deadline := time.After(2 * time.Second)
	for n := 0; n < 20; {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of 20 dropped fabrics were collected: parked goroutines keep the others reachable", n)
		}
	}
}
