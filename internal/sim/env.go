package sim

import "fmt"

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create environments with New.
type Env struct {
	now    float64
	seq    int64
	steps  int64
	events eventHeap
	// due holds, in scheduling order, the events scheduled for the time
	// it already was (a quarter of a flash crowd's), sparing them the heap.
	// What the heap holds for this instant was scheduled before the clock
	// got here, so it fires first and the order stays (t, seq).
	due   []*Event
	head  int // the first entry of due not yet fired
	procs int // number of live (started, not finished) processes

	// free recycles fired and canceled events: a 10k-instance flash
	// crowd schedules tens of millions of events, and allocating each
	// one fresh made Env.At the single largest allocation site of the
	// large simulations.
	free []*Event
	// freeBatches recycles the waiter slices handed to batch resume
	// events (see Cond.Broadcast).
	freeBatches [][]*Proc
}

// New returns an empty environment with the clock at zero. There is
// nothing to close: the goroutines behind its processes belong to the
// process-wide pool (see worker).
func New() *Env { return &Env{} }

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Procs returns the number of processes that have been started and have
// not yet returned. A nonzero value after Run drains the event queue
// indicates processes blocked forever (usually a modeling bug).
func (e *Env) Procs() int { return e.procs }

// Pending returns the number of events currently queued.
func (e *Env) Pending() int { return len(e.events) + len(e.due) - e.head }

// Steps returns the total number of events executed so far; useful for
// diagnosing event storms.
func (e *Env) Steps() int64 { return e.steps }

// newEvent takes an event from the free list (or allocates one) and
// schedules it at absolute time t.
func (e *Env) newEvent(t float64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.t = t
	ev.seq = e.seq
	e.seq++
	if t == e.now {
		ev.index = -1 // Cancel marks it; the dispatcher recycles it
		e.due = append(e.due, ev)
	} else {
		e.events.push(ev)
	}
	return ev
}

// recycle returns a fired or canceled event to the free list. The
// dispatch payload is dropped eagerly so a dead event never pins the
// closure (and everything it captures — mirror and pool state at 10k
// scale) until the next reuse.
func (e *Env) recycle(ev *Event) {
	ev.fn = nil
	ev.proc = nil
	ev.batch = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it would silently reorder causality.
func (e *Env) At(t float64, fn func()) *Event {
	ev := e.newEvent(t)
	ev.fn = fn
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Env) After(d float64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// resumeAt schedules process p to be resumed at absolute time t — the
// allocation-free form of At(t, func() { e.handoff(p) }) used by every
// hot scheduler (Sleep, semaphore admission, condition signaling).
func (e *Env) resumeAt(t float64, p *Proc) *Event {
	ev := e.newEvent(t)
	ev.proc = p
	return ev
}

// resumeBatch schedules one event at the current time that resumes
// every process in ws in order — a Cond broadcast as a single event
// instead of one per waiter. Ownership of ws transfers to the event;
// the slice returns to the batch pool after dispatch.
func (e *Env) resumeBatch(ws []*Proc) {
	ev := e.newEvent(e.now)
	ev.batch = ws
}

// getBatch takes a waiter-slice buffer from the batch pool.
func (e *Env) getBatch() []*Proc {
	if n := len(e.freeBatches); n > 0 {
		b := e.freeBatches[n-1]
		e.freeBatches[n-1] = nil
		e.freeBatches = e.freeBatches[:n-1]
		return b[:0]
	}
	return make([]*Proc, 0, 8)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired or was already canceled is a no-op. The event's callback
// (or resume target) is released immediately in every case, so a canceled
// timer never pins the state its closure captured.
func (e *Env) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if ev.canceled || ev.index < 0 {
		// Already canceled, currently dispatching, or already fired: mark
		// and strip the payload, but leave recycling to the dispatcher —
		// the event must not enter the free list twice.
		ev.canceled = true
		ev.fn = nil
		ev.proc = nil
		ev.batch = nil
		return
	}
	ev.canceled = true
	e.events.remove(ev.index)
	e.recycle(ev)
}

// dispatch runs one popped event's payload.
func (e *Env) dispatch(ev *Event) {
	switch {
	case ev.proc != nil:
		e.handoff(ev.proc)
	case ev.batch != nil:
		ws := ev.batch
		ev.batch = nil // the pool buffer is released below, not by recycle
		for i, q := range ws {
			ws[i] = nil
			e.handoff(q)
		}
		e.freeBatches = append(e.freeBatches, ws)
	case ev.fn != nil:
		ev.fn()
	}
}

// Run executes events until the queue drains.
func (e *Env) Run() { e.RunUntil(-1) }

// RunUntil executes events with time ≤ limit (limit < 0 means no limit)
// and stops when the queue drains or every remaining event lies beyond
// the limit. The clock is left at the last executed event's time, or at
// limit if that is later.
func (e *Env) RunUntil(limit float64) {
	for limit < 0 || limit >= e.now {
		var next *Event
		switch {
		case len(e.events) > 0 && e.events[0].t == e.now:
			next = e.events.remove(0)
		case e.head < len(e.due):
			next, e.due[e.head] = e.due[e.head], nil
			if e.head++; e.head == len(e.due) {
				e.due, e.head = e.due[:0], 0
			}
		case len(e.events) > 0 && (limit < 0 || e.events[0].t <= limit):
			next = e.events.remove(0)
		}
		if next == nil {
			break
		}
		if next.canceled {
			e.recycle(next)
			continue
		}
		e.now = next.t
		e.steps++
		e.dispatch(next)
		e.recycle(next)
	}
	if limit >= 0 && e.now < limit {
		e.now = limit
	}
}
