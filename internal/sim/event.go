package sim

// Event is a scheduled callback in the simulation. Events are ordered by
// (time, sequence number): ties in virtual time are broken by scheduling
// order, which makes every run fully deterministic.
//
// Fired and canceled events are recycled onto the environment's free
// list, so an Event handle is only valid until the event fires or is
// canceled: calling Cancel on a handle after either point may cancel
// an unrelated recycled event.
// The two in-tree retainers (PSPool and flownet timers) clear their
// handle on fire and cancel-before-rearm, which satisfies this.
type Event struct {
	t   float64
	seq int64

	// Exactly one of the three dispatch payloads is set: a plain
	// callback, a single process to resume, or a batch of processes to
	// resume in FIFO order (a Cond broadcast). The resume forms exist
	// so the hot schedulers — Sleep, semaphore admission, condition
	// signaling — need no per-call closure allocation.
	fn    func()
	proc  *Proc
	batch []*Proc

	canceled bool
	index    int // heap index; -1 off the heap: due now, popped or canceled
}

// eventHeap is a binary min-heap of events keyed by (t, seq). An entry
// carries its key inline, so sifting compares without dereferencing the
// events and without an interface call; the event only learns its index
// (for Cancel) when an entry comes to rest.
type eventHeap []heapEntry

type heapEntry struct {
	t   float64
	seq int64
	ev  *Event
}

func (a heapEntry) before(b heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, heapEntry{})
	h.up(len(*h)-1, heapEntry{ev.t, ev.seq, ev})
}

// remove takes the entry at index i out of the heap and returns its
// event; remove(0) pops the minimum.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev, last := old[i].ev, old[n]
	ev.index = -1
	old[n] = heapEntry{}
	*h = old[:n]
	switch {
	case i == n:
	case i > 0 && last.before(old[(i-1)/2]):
		h.up(i, last)
	default:
		h.down(i, last)
	}
	return ev
}

// up puts x into the hole at i or above it, moving parents down.
func (h eventHeap) up(i int, x heapEntry) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down puts x into the hole at i or below it, moving children up.
func (h eventHeap) down(i int, x heapEntry) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		h[i].ev.index = i
		i = c
	}
	h[i] = x
	x.ev.index = i
}
