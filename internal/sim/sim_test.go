package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestEnvStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(2.0, func() { order = append(order, 2) })
	e.At(1.0, func() { order = append(order, 1) })
	e.At(3.0, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3.0 {
		t.Fatalf("Now() = %v, want 3.0", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (ties must fire in scheduling order)", i, v, i)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1.0, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and nil-cancel must be no-ops: neither panics, and
	// neither touches the next event (ev's slot may be recycled for it).
	e.Cancel(ev)
	e.Cancel(nil)
	e.At(2, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("an event scheduled after a double and a nil cancel never fired")
	}
}

func TestCancelOneOfSeveral(t *testing.T) {
	e := New()
	var got []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(float64(i+1), func() { got = append(got, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		e.At(tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want 5 events", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10 (clock advances to limit)", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	e.Run()
	if !almostEq(wake, 2.5) {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
	if e.Procs() != 0 {
		t.Fatalf("Procs() = %d after Run, want 0", e.Procs())
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := New()
	var times []float64
	e.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(1)
			times = append(times, p.Now())
		}
	})
	e.Run()
	for i, want := range []float64{1, 2, 3, 4} {
		if !almostEq(times[i], want) {
			t.Fatalf("times = %v, want [1 2 3 4]", times)
		}
	}
}

func TestManyProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			d := float64(5 - i)
			e.Go(name, func(p *Proc) {
				p.Sleep(d)
				log = append(log, p.Name())
				p.Sleep(10)
				log = append(log, p.Name())
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: log %v != %v (nondeterministic)", trial, got, first)
			}
		}
	}
}

func TestJoin(t *testing.T) {
	e := New()
	var joinedAt float64
	child := (*Proc)(nil)
	e.Go("parent", func(p *Proc) {
		child = e.Go("child", func(c *Proc) { c.Sleep(7) })
		p.Join(child)
		joinedAt = p.Now()
		p.Join(child) // joining a finished proc returns immediately
	})
	e.Run()
	if !almostEq(joinedAt, 7) {
		t.Fatalf("joined at %v, want 7", joinedAt)
	}
	if !child.Finished() {
		t.Fatal("child not finished")
	}
}

// TestCondBroadcast checks that Broadcast wakes every waiter in the
// order it arrived, through the plain resume (one waiter) and through
// the batch event (several).
func TestCondBroadcast(t *testing.T) {
	for _, n := range []int{1, 5} {
		e := New()
		var c Cond
		var order []int
		for i := 0; i < n; i++ {
			e.Go("w", func(p *Proc) {
				p.Sleep(float64(n - i)) // staggered arrival, last-started first
				c.Wait(p)
				order = append(order, i)
			})
		}
		e.Go("b", func(p *Proc) {
			p.Sleep(10)
			if c.Waiters() != n {
				t.Errorf("n=%d: Waiters() = %d before broadcast", n, c.Waiters())
			}
			c.Broadcast(e)
		})
		e.Run()
		if len(order) != n {
			t.Fatalf("n=%d: woke %v", n, order)
		}
		for k, i := range order {
			if i != n-1-k {
				t.Fatalf("n=%d: wake order %v, want arrival order", n, order)
			}
		}
		if c.Waiters() != 0 {
			t.Fatalf("n=%d: Waiters() = %d after broadcast, want 0", n, c.Waiters())
		}
	}
}

func TestSemaphoreBlocksAtCapacity(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 10)
	var acquiredAt float64
	e.Go("holder", func(p *Proc) {
		s.Acquire(p, 10)
		p.Sleep(5)
		s.Release(10)
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(1)
		s.Acquire(p, 4)
		acquiredAt = p.Now()
		s.Release(4)
	})
	e.Run()
	if !almostEq(acquiredAt, 5) {
		t.Fatalf("acquired at %v, want 5", acquiredAt)
	}
}

func TestSemaphoreFIFOPreventsStarvation(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 10)
	var order []string
	e.Go("holder", func(p *Proc) {
		s.Acquire(p, 10)
		p.Sleep(5)
		s.Release(10)
	})
	// The big request arrives first and must be served before the later
	// small one even though the small one would fit sooner.
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		s.Acquire(p, 8)
		order = append(order, "big")
		p.Sleep(1)
		s.Release(8)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		s.Acquire(p, 2)
		order = append(order, "small")
		s.Release(2)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want big first (FIFO)", order)
	}
}

func TestSemaphoreOverRelease(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 5)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	s.Release(1)
}

func TestPSPoolSingleJob(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100) // 100 units/s
	var done float64
	e.Go("j", func(p *Proc) {
		pool.Use(p, 250)
		done = p.Now()
	})
	e.Run()
	if !almostEq(done, 2.5) {
		t.Fatalf("job done at %v, want 2.5", done)
	}
}

func TestPSPoolFairSharing(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100)
	var d1, d2 float64
	e.Go("a", func(p *Proc) {
		pool.Use(p, 100)
		d1 = p.Now()
	})
	e.Go("b", func(p *Proc) {
		pool.Use(p, 100)
		d2 = p.Now()
	})
	e.Run()
	// Two equal jobs sharing 100 u/s: each runs at 50 u/s, both done at 2.
	if !almostEq(d1, 2) || !almostEq(d2, 2) {
		t.Fatalf("done at %v, %v; want 2, 2", d1, d2)
	}
}

func TestPSPoolLateArrivalSlowsFirst(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100)
	var d1, d2 float64
	e.Go("a", func(p *Proc) {
		pool.Use(p, 100) // alone 0..0.5 (50 done), shared after
		d1 = p.Now()
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(0.5)
		pool.Use(p, 100)
		d2 = p.Now()
	})
	e.Run()
	// a: 50 units alone by t=0.5, then 50 at 50 u/s -> done 1.5.
	// b: 50 of its 100 by t=1.5, remaining 50 alone at 100 -> done 2.0.
	if !almostEq(d1, 1.5) {
		t.Fatalf("d1 = %v, want 1.5", d1)
	}
	if !almostEq(d2, 2.0) {
		t.Fatalf("d2 = %v, want 2.0", d2)
	}
}

func TestPSPoolWorkConservation(t *testing.T) {
	// Property: with any set of jobs arriving at time 0, total completion
	// time equals total work / capacity for the last finisher.
	f := func(sizes []uint16) bool {
		var work float64
		var n int
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			work += float64(s)
			n++
		}
		if n == 0 {
			return true
		}
		e := New()
		pool := NewPSPool(e, "p", 37.5)
		var last float64
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			amount := float64(s)
			e.Go("j", func(p *Proc) {
				pool.Use(p, amount)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := work / 37.5
		return math.Abs(last-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSPoolBusyTimeAndServed(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 10)
	e.Go("a", func(p *Proc) { pool.Use(p, 50) })
	e.Run()
	if busy := pool.Served / pool.Capacity(); !almostEq(busy, 5) {
		t.Fatalf("busy time Served/Capacity() = %v, want 5", busy)
	}
	if !almostEq(pool.Served, 50) {
		t.Fatalf("Served = %v, want 50", pool.Served)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRNGFork(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork()
	g2 := NewRNG(7)
	f2 := g2.Fork()
	for i := 0; i < 50; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
}

func TestRNGRanges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := g.Uniform(3, 5); v < 3 || v >= 5 {
			t.Fatalf("Uniform(3,5) = %v out of range", v)
		}
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %v out of range", v)
		}
		if v := g.Exp(2); v < 0 {
			t.Fatalf("Exp(2) = %v negative", v)
		}
	}
}
