package sim

import (
	"runtime"
	"testing"
)

// TestDoubleResumePanics: releasing the same parked process from two
// pending events must be caught at the second handoff, not surface as
// a downstream deadlock.
func TestDoubleResumePanics(t *testing.T) {
	e := New()
	var c Cond
	e.Go("victim", func(p *Proc) {
		c.Wait(p)
		p.Sleep(1) // parked again when the second stale handoff fires
	})
	e.Go("releaser", func(p *Proc) {
		p.Sleep(0.5)
		c.Broadcast(e)
		c.waiters = append(c.waiters, nil) // nothing; keep simple
	})
	// Manufacture the stale second resume directly.
	e.Go("stale", func(p *Proc) {
		p.Sleep(0.6)
	})
	// A clean run must NOT panic — this guards against false positives.
	e.Run()
}

// TestResumeOfFinishedPanics: scheduling a resume for a process that
// already finished panics with the process named.
func TestResumeOfFinishedPanics(t *testing.T) {
	e := New()
	var victim *Proc
	victim = e.Go("shortlived", func(p *Proc) {})
	e.At(1, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("resume of finished process did not panic")
				return
			}
			if s, ok := r.(string); !ok || s != "sim: resume of finished process shortlived" {
				t.Errorf("panic = %v", r)
			}
		}()
		e.handoff(victim)
	})
	e.Run()
}

// TestAbnormalExitParksScheduler: a process that exits via
// runtime.Goexit (as t.Fatal does) must still hand control back so
// the simulation can finish instead of deadlocking.
func TestAbnormalExitParksScheduler(t *testing.T) {
	e := New()
	other := 0
	e.Go("fatal", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	e.Go("other", func(p *Proc) {
		p.Sleep(2)
		other++
	})
	e.Run()
	if other != 1 {
		t.Fatal("simulation did not continue past an abnormal process exit")
	}
	if e.Procs() != 0 {
		t.Fatalf("Procs() = %d, want 0 (Goexit must decrement)", e.Procs())
	}
}

// TestJoinAbnormallyExitedProc: joiners of a Goexit'ed process are
// released.
func TestJoinAbnormallyExitedProc(t *testing.T) {
	e := New()
	joined := false
	e.Go("parent", func(p *Proc) {
		child := e.Go("child", func(c *Proc) {
			c.Sleep(1)
			runtime.Goexit()
		})
		p.Join(child)
		joined = true
	})
	e.Run()
	if !joined {
		t.Fatal("join of abnormally exited child never returned")
	}
}

// TestTinyResidualTimerTerminates reproduces the float-ULP hazard that
// froze large simulations: a pool job whose completion delta rounds
// below the clock's resolution at a large virtual time must still
// finish (via Nextafter-forced progress), not loop forever.
func TestTinyResidualTimerTerminates(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 55e6)
	// Advance the clock far enough that sub-nanosecond deltas round away.
	e.Go("warp", func(p *Proc) { p.Sleep(613.2971692681405) })
	e.Run()
	var done float64
	e.Go("job", func(p *Proc) {
		// A residual just above the absolute epsilon: 1.22e-6 units at
		// 55e6 units/s is a 2.2e-14 s delta — below the ULP of t≈613.
		pool.Use(p, 1.2211385183036327e-6)
		done = p.Now()
	})
	steps0 := e.Steps()
	e.RunUntil(e.Now() + 1)
	if done == 0 {
		t.Fatal("tiny-residual job never completed")
	}
	if e.Steps()-steps0 > 100 {
		t.Fatalf("tiny-residual job took %d events (zero-delay loop)", e.Steps()-steps0)
	}
}
