package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestPSPoolIdleWaitsForForeground: a background job makes no progress
// while a foreground job is active, and takes the whole pool after.
func TestPSPoolIdleWaitsForForeground(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100)
	var fg, bg float64
	e.Go("bg", func(p *Proc) { pool.UseIdle(p, 100); bg = p.Now() })
	e.Go("fg", func(p *Proc) { pool.Use(p, 100); fg = p.Now() })
	e.At(0.9, func() {
		pool.advance()
		if rem := pool.idle[0].remaining; rem != 100 {
			t.Errorf("background job at t=0.9 has %v left, want all 100", rem)
		}
	})
	e.Run()
	if !almostEq(fg, 1) || !almostEq(bg, 2) {
		t.Fatalf("foreground done at %v, background at %v; want 1, 2", fg, bg)
	}
}

// TestPSPoolForegroundIgnoresIdle: a foreground job beside any number of
// background jobs finishes in amount / capacity.
func TestPSPoolForegroundIgnoresIdle(t *testing.T) {
	f := func(amount uint16, idle []uint16) bool {
		e := New()
		pool := NewPSPool(e, "p", 37.5)
		for _, a := range idle {
			pool.UseIdleAsync(float64(a), func() {})
		}
		var done float64
		e.Go("fg", func(p *Proc) { pool.Use(p, float64(amount)); done = p.Now() })
		e.Run()
		return math.Abs(done-float64(amount)/37.5) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPSPoolIdleShareEqually: background jobs alone share the pool like
// foreground ones do.
func TestPSPoolIdleShareEqually(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100)
	var d1, d2 float64
	e.Go("a", func(p *Proc) { pool.UseIdle(p, 100); d1 = p.Now() })
	e.Go("b", func(p *Proc) { pool.UseIdle(p, 100); d2 = p.Now() })
	e.Run()
	if !almostEq(d1, 2) || !almostEq(d2, 2) {
		t.Fatalf("done at %v, %v; want 2, 2", d1, d2)
	}
}

// TestPSPoolForegroundFreezesIdle: a foreground job arriving mid-way
// freezes background progress, which resumes when it ends.
func TestPSPoolForegroundFreezesIdle(t *testing.T) {
	e := New()
	pool := NewPSPool(e, "disk", 100)
	var fg, bg float64
	e.Go("bg", func(p *Proc) { pool.UseIdle(p, 100); bg = p.Now() })
	e.Go("fg", func(p *Proc) { p.Sleep(0.5); pool.Use(p, 50); fg = p.Now() })
	e.At(0.75, func() {
		pool.advance()
		if rem := pool.idle[0].remaining; !almostEq(rem, 50) {
			t.Errorf("background job at t=0.75 has %v left, want the 50 it had at 0.5", rem)
		}
	})
	e.Run()
	// bg: 50 alone by 0.5, frozen until fg ends at 1.0, 50 more by 1.5.
	if !almostEq(fg, 1) || !almostEq(bg, 1.5) {
		t.Fatalf("foreground done at %v, background at %v; want 1, 1.5", fg, bg)
	}
}

// idleSchedule runs a seeded schedule of jobs with random sizes and
// arrival times; with mixed, a random half of them are background jobs,
// blocking or async. It returns the pool and each job's arrival and
// completion times.
func idleSchedule(seed int64, mixed bool) (pool *PSPool, arrive, done []float64) {
	rng := rand.New(rand.NewSource(seed))
	e := New()
	pool = NewPSPool(e, "disk", 55)
	arrive, done = make([]float64, 40), make([]float64, 40)
	for i := range done {
		at, amount := rng.Float64()*10, 1+rng.Float64()*50
		idle, async := rng.Intn(2) == 0 && mixed, rng.Intn(2) == 0
		e.Go("j", func(p *Proc) {
			p.Sleep(at)
			arrive[i] = p.Now()
			switch {
			case idle && async:
				pool.UseIdleAsync(amount, func() { done[i] = e.Now() })
			case idle:
				pool.UseIdle(p, amount)
				done[i] = p.Now()
			case async:
				pool.UseAsync(amount, func() { done[i] = e.Now() })
			default:
				pool.Use(p, amount)
				done[i] = p.Now()
			}
		})
	}
	e.Run()
	return pool, arrive, done
}

// TestPSPoolIdleWorkConserving: the disk never idles with work pending,
// so the mixed schedule serves the plain processor-sharing run's work
// and drains at the same instant, and the same seed gives the same
// schedule.
func TestPSPoolIdleWorkConserving(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		plain, _, plainDone := idleSchedule(seed, false)
		mixed, _, done := idleSchedule(seed, true)
		if math.Abs(mixed.Served-plain.Served) > 1e-6 {
			t.Errorf("seed %d: served %v, plain PS %v", seed, mixed.Served, plain.Served)
		}
		if drain, plainDrain := slices.Max(done), slices.Max(plainDone); math.Abs(drain-plainDrain) > 1e-9 {
			t.Errorf("seed %d: drained at %v, plain PS at %v", seed, drain, plainDrain)
		}
		if len(mixed.jobs)+len(mixed.idle) != 0 {
			t.Errorf("seed %d: jobs left after the run", seed)
		}
		if _, _, again := idleSchedule(seed, true); !slices.Equal(done, again) {
			t.Errorf("seed %d: completion times differ between runs: %v vs %v", seed, done, again)
		}
	}
}

// TestPSPoolServedIsBusyTime: a work-conserving pool serves at its full
// capacity whenever some job is present and not otherwise, so
// Served/Capacity() is the measure of the union of the jobs'
// [arrival, completion] intervals: the busy time the pool does not
// store.
func TestPSPoolServedIsBusyTime(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		pool, arrive, done := idleSchedule(seed, true)
		order := make([]int, len(arrive))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(arrive[a], arrive[b]) })
		var busy, from, to float64
		for k, i := range order {
			switch {
			case k == 0:
				from, to = arrive[i], done[i]
			case arrive[i] > to:
				busy += to - from
				from, to = arrive[i], done[i]
			default:
				to = max(to, done[i])
			}
		}
		busy += to - from
		if got := pool.Served / pool.Capacity(); math.Abs(got-busy) > 1e-9 {
			t.Errorf("seed %d: Served/Capacity() = %v s, union of the jobs' intervals %v s", seed, got, busy)
		}
	}
}
