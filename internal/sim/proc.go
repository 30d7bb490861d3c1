package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// Proc is a simulated process: a coroutine that runs cooperatively under
// the environment's scheduler. At most one process executes at a time;
// a process gives up control by sleeping, waiting on a Cond, or using a
// resource, and the scheduler resumes it when the corresponding virtual
// time arrives.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	env      *Env
	name     string
	w        *worker
	parked   bool // blocked in yield (or at startup), awaiting resume
	finished bool
	done     Cond
}

// worker is a reusable coroutine (iter.Pull) that runs processes one
// after another. The scheduler resumes it with next and it parks with
// yield: the runtime switches between the two goroutines directly, on
// the thread they are on. A handoff over channels costs five times as
// much, and every resume makes a goroutine runnable, for which the
// runtime wakes a second OS thread: the host time of a run then depends
// on how the machine schedules the two (docs/perf.md, "Host time of the
// sim workloads: one thread, not two", has the numbers).
//
// A 10k-instance flash crowd starts millions of short-lived activities
// (chunk fetchers, write-backs, broadcast hops), and a coroutine costs
// 13 allocations to create, so workers are recycled through idle, a
// free list of the whole process: one that has finished its process
// references no environment (the job carried it) and serves whichever
// asks next. Environments therefore need no Close and leave nothing
// behind that grows with their number; what stays is at most maxIdle
// parked goroutines.
//
// The runtime requires next's caller and the worker to agree on their
// LockOSThread state, so a program may not run simulations from locked
// and from unlocked goroutines both.
type worker struct {
	next  func() (bool, bool) // run until the worker parks; true: its process finished
	stop  func()
	yield func(free bool) bool
	job   workerJob
}

type workerJob struct {
	p  *Proc
	fn func(p *Proc)
}

// maxIdle bounds the free list: a parked goroutine keeps its stack, and
// the peak of one huge simulation should not stay resident for the life
// of the process.
const maxIdle = 1 << 14

var idle struct {
	sync.Mutex
	free []*worker
}

func getWorker() *worker {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.free)
	if n == 0 {
		return newWorker()
	}
	w := idle.free[n-1]
	idle.free[n-1] = nil
	idle.free = idle.free[:n-1]
	return w
}

// putWorker takes back a worker that has parked between two processes.
func putWorker(w *worker) {
	idle.Lock()
	keep := len(idle.free) < maxIdle
	if keep {
		idle.free = append(idle.free, w)
	}
	idle.Unlock()
	if !keep {
		w.stop()
	}
}

func newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(bool) bool) {
		w.yield = yield
		for {
			j := w.job
			w.job = workerJob{}
			w.run(j)
			if !yield(true) {
				return
			}
		}
	})
	return w
}

// run executes one process on the worker.
//
// The completion bookkeeping runs in a defer so that a process exiting
// through runtime.Goexit — as t.Fatal inside a simulation test does —
// still counts as finished and releases its joiners. iter.Pull would
// carry the Goexit over to the scheduler's goroutine and end the whole
// simulation; the worker parks for good inside the defer instead, so
// the simulation goes on and only cleanly finished workers are reused.
// A panic does continue on the scheduler's goroutine, in whoever called
// Env.Run, and takes the process's stack along in its value.
func (w *worker) run(j workerJob) {
	normal := false
	defer func() {
		p, e := j.p, j.p.env
		p.finished = true
		e.procs--
		p.done.Broadcast(e)
		if normal {
			return
		}
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: process %s panicked: %v\n%s", p.name, r, debug.Stack()))
		}
		w.yield(false)
	}()
	j.fn(j.p)
	normal = true
}

// Go starts fn as a new process at the current virtual time. The name is
// used only for diagnostics.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	w := getWorker()
	p := &Proc{env: e, name: name, w: w, parked: true}
	e.procs++
	w.job = workerJob{p: p, fn: fn}
	e.resumeAt(e.now, p)
	return p
}

// handoff transfers control from the scheduler to p and blocks until p
// parks again (by yielding or finishing). It must only be called from
// the scheduler's goroutine, i.e. from inside an event function.
//
// The invariant checks catch double-resume bugs (a process released by
// two pending events) at their source instead of as downstream
// deadlocks; the flags are only ever touched under the one-runner
// discipline, so there is no race.
func (e *Env) handoff(p *Proc) {
	if p.finished {
		panic("sim: resume of finished process " + p.name)
	}
	if !p.parked {
		panic("sim: double resume of process " + p.name)
	}
	p.parked = false
	w := p.w
	if free, _ := w.next(); free {
		p.w = nil
		putWorker(w)
	}
}

// yield parks the process and returns control to the scheduler. The
// process must have arranged (before calling yield) for some future
// event to resume it, or it will sleep forever.
func (p *Proc) yield() {
	p.parked = true
	p.w.yield(false)
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }

// Sleep suspends the process for d seconds of virtual time. A negative
// duration panics; zero yields to other events scheduled at this time.
func (p *Proc) Sleep(d float64) {
	e := p.env
	if d < 0 {
		panic("sim: negative sleep")
	}
	e.resumeAt(e.now+d, p)
	p.yield()
}

// Join blocks until q finishes. Joining an already finished process
// returns immediately.
func (p *Proc) Join(q *Proc) {
	if q.finished {
		return
	}
	q.done.Wait(p)
}

// Cond is a waitable condition: processes park on it with Wait and are
// released by Broadcast. Release is FIFO and takes effect as
// zero-delay events, preserving the one-process-at-a-time invariant.
// The zero value is ready to use.
type Cond struct {
	waiters []*Proc
}

// Wait parks p until the next Broadcast. The first wait makes room
// for two waiters, the common pair, so that it does not grow twice.
func (c *Cond) Wait(p *Proc) {
	if c.waiters == nil {
		c.waiters = make([]*Proc, 0, 2)
	}
	c.waiters = append(c.waiters, p)
	p.yield()
}

// Broadcast releases all waiting processes in FIFO order. A single
// waiter resumes through one plain event; multiple waiters ride one
// batch event (instead of one scheduled event per waiter), which
// dispatches them back-to-back in the same order the per-waiter events
// would have run — their sequence numbers were consecutive, so no
// other event could have interleaved. The Cond keeps its backing
// array either way.
func (c *Cond) Broadcast(e *Env) {
	switch len(c.waiters) {
	case 0:
		return
	case 1:
		q := c.waiters[0]
		c.waiters[0] = nil
		c.waiters = c.waiters[:0]
		e.resumeAt(e.now, q)
		return
	}
	ws := e.getBatch()
	ws = append(ws, c.waiters...)
	for i := range c.waiters {
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	e.resumeBatch(ws)
}

// Waiters returns the number of processes currently parked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
