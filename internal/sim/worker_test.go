package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// sleepers runs n processes that overlap in time on a new environment.
func sleepers(n int) {
	e := New()
	for i := 0; i < n; i++ {
		e.Go("sleeper", func(p *Proc) { p.Sleep(1) })
	}
	e.Run()
}

func idleWorkers() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.free)
}

// workerGoroutines counts the goroutines behind live workers, read from
// a goroutine profile by the functions on their stacks. It leaves out
// the rest of the test binary, whose goroutines come and go with the
// tests around it, and workers whose process exited through
// runtime.Goexit: those park for good inside run's deferred call
// (proc.go) and are never reused.
func workerGoroutines() int {
	n, _ := runtime.GoroutineProfile(nil)
	recs := make([]runtime.StackRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.GoroutineProfile(recs); ok {
			break
		}
		recs = make([]runtime.StackRecord, 2*n)
	}
	// Parked workers share one stack, so each distinct stack is
	// classified once.
	live := make(map[[32]uintptr]bool)
	count := 0
	for _, r := range recs[:n] {
		is, seen := live[r.Stack0]
		if !seen {
			worker, exited := false, false
			frames := runtime.CallersFrames(r.Stack())
			for more := true; more; {
				var f runtime.Frame
				f, more = frames.Next()
				worker = worker || strings.HasSuffix(f.Function, "sim.newWorker.func1")
				exited = exited || strings.HasSuffix(f.Function, "sim.(*worker).run.func1")
			}
			is = worker && !exited
			live[r.Stack0] = is
		}
		if is {
			count++
		}
	}
	return count
}

// TestWorkersOutliveTheirEnv: the goroutines behind finished processes
// are parked in the process-wide list and run the next environment's
// processes, so environments leave nothing behind that grows with
// their number.
func TestWorkersOutliveTheirEnv(t *testing.T) {
	sleepers(32)
	if n := idleWorkers(); n < 32 {
		t.Fatalf("%d idle workers after 32 concurrent processes", n)
	}
	base, parked := workerGoroutines(), idleWorkers()
	for i := 0; i < 10; i++ {
		sleepers(32)
	}
	if n := workerGoroutines(); n != base {
		t.Errorf("%d worker goroutines after ten more environments, %d after the first", n, base)
	}
	if n := idleWorkers(); n != parked {
		t.Errorf("%d idle workers after ten more environments, %d after the first", n, parked)
	}
}

// TestEnvsShareWorkersAcrossGoroutines: environments running at once on
// several goroutines take from and give to the one list (run with -race).
func TestEnvsShareWorkersAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e := New()
				woke := 0
				for k := 0; k < 16; k++ {
					e.Go("sleeper", func(p *Proc) { p.Sleep(float64(k)); woke++ })
				}
				e.Run()
				if woke != 16 || e.Procs() != 0 {
					t.Errorf("%d of 16 processes ran, %d left", woke, e.Procs())
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleWorkersAreBounded: past maxIdle a worker that finishes ends
// its goroutine instead of parking it.
func TestIdleWorkersAreBounded(t *testing.T) {
	sleepers(maxIdle + 100)
	if n := idleWorkers(); n != maxIdle {
		t.Fatalf("%d idle workers, want the bound %d", n, maxIdle)
	}
	n := workerGoroutines()
	if n < maxIdle {
		t.Fatalf("%d worker goroutines counted with %d idle workers: the count misses workers", n, maxIdle)
	}
	if n > maxIdle+50 {
		t.Fatalf("%d worker goroutines with %d idle workers: the others did not end", n, maxIdle)
	}
}

// TestProcessPanicReachesRun: a panic inside a process continues in
// the caller of Run and names the process and where it was.
func TestProcessPanicReachesRun(t *testing.T) {
	e := New()
	e.Go("doomed", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"process doomed", "boom", "TestProcessPanicReachesRun.func1"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	e.Run()
	t.Fatal("Run returned")
}
