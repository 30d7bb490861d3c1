package sim

import "math"

// Semaphore is a counting semaphore measured in arbitrary units (bytes,
// slots, ...). Acquisition is FIFO: a large request at the head of the
// queue blocks later small ones, which prevents starvation.
//
// The admission contract, precisely:
//
//   - Acquire with n <= 0 returns immediately without queuing and
//     without checking the waiter queue. A zero-sized request holds no
//     units, so admitting it ahead of the queue cannot starve anyone.
//   - Release admits queued waiters strictly FIFO, stopping at the
//     first waiter that does not fit.
//
// TestSemaphoreFIFONoBypass pins this contract under random
// interleavings of both operations.
//
// Release may be called from any simulation context (process or event
// callback); Acquire must be called from a process.
//
// Waiters queue in a ring buffer (head + count over a power-of-two-ish
// backing array) rather than a re-sliced slice: re-slicing `waiters[1:]`
// on every admission permanently strands the popped head slots, so the
// backing array is re-grown forever under sustained churn.
type Semaphore struct {
	env      *Env
	capacity int64
	used     int64
	waiters  []semWait // ring: count entries starting at head
	head     int
	count    int
}

type semWait struct {
	p *Proc
	n int64
}

// NewSemaphore returns a semaphore with the given capacity in units.
func NewSemaphore(env *Env, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{env: env, capacity: capacity}
}

// Capacity returns the total capacity.
func (s *Semaphore) Capacity() int64 { return s.capacity }

func (s *Semaphore) pushWaiter(w semWait) {
	if s.count == len(s.waiters) {
		grown := make([]semWait, 2*s.count+8)
		for i := 0; i < s.count; i++ {
			grown[i] = s.waiters[(s.head+i)%len(s.waiters)]
		}
		s.waiters = grown
		s.head = 0
	}
	s.waiters[(s.head+s.count)%len(s.waiters)] = w
	s.count++
}

func (s *Semaphore) popWaiter() semWait {
	w := s.waiters[s.head]
	s.waiters[s.head] = semWait{}
	s.head = (s.head + 1) % len(s.waiters)
	s.count--
	return w
}

// Acquire blocks p until n units are available and takes them. Requests
// larger than the capacity panic, since they could never be satisfied.
// n <= 0 returns immediately without queuing (see the type comment).
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if n > s.capacity {
		panic("sim: semaphore request exceeds capacity")
	}
	if n <= 0 {
		return
	}
	if s.count == 0 && s.used+n <= s.capacity {
		s.used += n
		return
	}
	s.pushWaiter(semWait{p, n})
	p.yield()
}

// Release returns n units and admits queued waiters in FIFO order.
func (s *Semaphore) Release(n int64) {
	if n <= 0 {
		return
	}
	s.used -= n
	if s.used < 0 {
		panic("sim: semaphore released more than acquired")
	}
	for s.count > 0 {
		w := s.waiters[s.head]
		if s.used+w.n > s.capacity {
			break
		}
		s.used += w.n
		s.popWaiter()
		s.env.resumeAt(s.env.now, w.p)
	}
}

// PSPool is a processor-sharing resource with a fixed service capacity
// in units per second (e.g. a disk delivering 55 MB/s). All active jobs
// progress simultaneously, each receiving capacity/len(jobs); completion
// events are rescheduled whenever the job set changes. This matches the
// fair-sharing behaviour of an OS block layer or a NIC under many
// streams far better than FCFS does, and is what shapes the contention
// curves of the paper's figures.
//
// Background jobs (UseIdle, UseIdleAsync) share the capacity likewise,
// but only while no foreground job (Use, UseAsync) is active: strict
// priority, the block layer's idle I/O class. It suits work nothing is
// lost by delaying, such as writing back a clean copy of data stored
// elsewhere; dirty data, whose only copy waits, stays in the foreground.
// The pool is work-conserving: it idles only with no job of either class.
type PSPool struct {
	env      *Env
	capacity float64
	jobs     []*psJob // foreground, served whenever present
	idle     []*psJob // background, served only while jobs is empty
	last     float64  // virtual time of last remaining-work update
	timer    *Event

	// completeFn is the timer callback, bound once: taking the method
	// value pool.complete inside reschedule allocates a closure on every
	// rearm, and the pool rearms on every job arrival and departure.
	completeFn func()
	// freeJobs recycles finished job records.
	freeJobs []*psJob

	// Served accumulates total units of work completed. The pool is
	// work-conserving, so its busy time is Served / Capacity().
	Served float64
}

type psJob struct {
	remaining float64
	done      Cond
	// fn, when set, is the completion callback of an async job; such
	// jobs have no waiting process and signal through an event instead.
	fn func()
}

// NewPSPool returns a processor-sharing pool with the given capacity in
// units per second. The name labels only its panic.
func NewPSPool(env *Env, name string, capacity float64) *PSPool {
	if capacity <= 0 {
		panic("sim: PSPool " + name + " capacity must be positive")
	}
	pool := &PSPool{env: env, capacity: capacity}
	pool.completeFn = pool.complete
	return pool
}

// Capacity returns the pool's total service rate.
func (pool *PSPool) Capacity() float64 { return pool.capacity }

func (pool *PSPool) getJob() *psJob {
	if n := len(pool.freeJobs); n > 0 {
		j := pool.freeJobs[n-1]
		pool.freeJobs[n-1] = nil
		pool.freeJobs = pool.freeJobs[:n-1]
		return j
	}
	return &psJob{}
}

// serving returns the class the pool serves now: the foreground jobs if
// there are any, else the background ones.
func (pool *PSPool) serving() *[]*psJob {
	if len(pool.jobs) > 0 {
		return &pool.jobs
	}
	return &pool.idle
}

// insert adds a job of amount units to the foreground class, or to the
// background one if idle. When it completes, fn runs (as a zero-delay
// event) if set, and whoever waits on the job's done is resumed if not:
// one event either way.
func (pool *PSPool) insert(amount float64, fn func(), idle bool) *psJob {
	pool.advance()
	job := pool.getJob()
	job.remaining, job.fn = amount, fn
	if !idle {
		pool.jobs = append(pool.jobs, job)
	} else if pool.idle = append(pool.idle, job); len(pool.jobs) > 0 {
		return job // not served until the foreground drains: the timer stands
	}
	pool.reschedule()
	return job
}

// Use blocks p while `amount` units of work are serviced by the pool,
// sharing capacity equally with all concurrent foreground jobs.
func (pool *PSPool) Use(p *Proc, amount float64) { pool.use(p, amount, false) }

// UseIdle is Use in the background class.
func (pool *PSPool) UseIdle(p *Proc, amount float64) { pool.use(p, amount, true) }

func (pool *PSPool) use(p *Proc, amount float64, idle bool) {
	if amount > 0 {
		pool.insert(amount, nil, idle).done.Wait(p)
	}
}

// UseAsync services `amount` units of work and runs done (as a
// zero-delay event) when they complete, without occupying a process:
// the callback fires at exactly the virtual time — and event position —
// at which a blocked Use call would have been resumed.
func (pool *PSPool) UseAsync(amount float64, done func()) { pool.useAsync(amount, done, false) }

// UseIdleAsync is UseAsync in the background class.
func (pool *PSPool) UseIdleAsync(amount float64, done func()) { pool.useAsync(amount, done, true) }

func (pool *PSPool) useAsync(amount float64, done func(), idle bool) {
	if amount <= 0 {
		pool.env.At(pool.env.now, done)
		return
	}
	pool.insert(amount, done, idle)
}

// advance applies elapsed virtual time to every served job's remaining
// work at the rate in force since the last update.
func (pool *PSPool) advance() {
	now := pool.env.now
	dt := now - pool.last
	pool.last = now
	jobs := *pool.serving()
	if dt <= 0 || len(jobs) == 0 {
		return
	}
	rate := pool.capacity / float64(len(jobs))
	for _, j := range jobs {
		d := rate * dt
		if d > j.remaining {
			d = j.remaining
		}
		j.remaining -= d
		pool.Served += d
	}
}

// reschedule cancels any pending completion timer and schedules one for
// the earliest completion among the served jobs at the current sharing
// rate.
//
// The completion instant is forced to be strictly after the current
// time: with a large clock value and a tiny residual, now+dt can round
// to now in float64 (dt below the clock's ULP), and a timer at the
// same instant would fire, make zero progress, and rearm forever.
func (pool *PSPool) reschedule() {
	if pool.timer != nil {
		pool.env.Cancel(pool.timer)
		pool.timer = nil
	}
	jobs := *pool.serving()
	if len(jobs) == 0 {
		return
	}
	minRem := jobs[0].remaining
	for _, j := range jobs[1:] {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	rate := pool.capacity / float64(len(jobs))
	target := pool.env.now + minRem/rate
	if target <= pool.env.now {
		target = math.Nextafter(pool.env.now, math.Inf(1))
	}
	pool.timer = pool.env.At(target, pool.completeFn)
}

// complete fires when the earliest served job should finish: it settles
// remaining work, releases every finished job of the served class, and
// rearms the timer.
func (pool *PSPool) complete() {
	pool.timer = nil
	pool.advance()
	served := pool.serving()
	jobs := *served
	// A job is done when its residual is float noise: below an absolute
	// sub-unit bound, or below what one nanosecond of service at the
	// current per-job rate would clear (residuals smaller than that are
	// rounding artifacts of repeated advance() subtraction).
	eps := 1e-6
	if len(jobs) > 0 {
		if rateEps := pool.capacity / float64(len(jobs)) * 1e-9; rateEps > eps {
			eps = rateEps
		}
	}
	kept := jobs[:0]
	for _, j := range jobs {
		if j.remaining <= eps {
			if j.fn != nil {
				pool.env.At(pool.env.now, j.fn)
				j.fn = nil
			} else {
				j.done.Broadcast(pool.env)
			}
			j.remaining = 0
			pool.freeJobs = append(pool.freeJobs, j)
		} else {
			kept = append(kept, j)
		}
	}
	// Zero the tail so finished jobs are not retained by the backing array.
	for i := len(kept); i < len(jobs); i++ {
		jobs[i] = nil
	}
	*served = kept
	pool.reschedule()
}
