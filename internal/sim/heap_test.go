package sim

import (
	"slices"
	"testing"
)

// TestEventHeapAgainstSort: random schedules, with cancellations from
// the middle of the queue, must fire in (time, scheduling order) exactly
// as a sort would have them, and every queued event must know its own
// heap index (Cancel removes by it).
func TestEventHeapAgainstSort(t *testing.T) {
	type key struct {
		t   float64
		seq int
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := NewRNG(seed)
		e := New()
		var want, got []key
		var handles []*Event
		for i := 0; i < 300; i++ {
			k := key{float64(rng.Intn(40)), i} // few distinct times: many ties
			handles = append(handles, e.At(k.t, func() { got = append(got, k) }))
			want = append(want, k)
			if rng.Intn(3) == 0 {
				victim := rng.Intn(len(handles))
				if h := handles[victim]; h != nil {
					e.Cancel(h)
					handles[victim] = nil
					want = slices.DeleteFunc(want, func(w key) bool { return w.seq == victim })
				}
			}
			for j, ent := range e.events {
				if ent.ev.index != j || ent.t != ent.ev.t || ent.seq != ent.ev.seq {
					t.Fatalf("seed %d: entry %d is out of step with its event (index %d)", seed, j, ent.ev.index)
				}
			}
		}
		e.Run()
		slices.SortFunc(want, func(a, b key) int {
			if a.t != b.t {
				return int(a.t - b.t)
			}
			return a.seq - b.seq
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: events fired out of (time, sequence) order", seed)
		}
	}
}

// TestDueEventsKeepOrder: events that schedule more events, for the
// instant they fire in and for later ones, and cancel pending ones, still
// fire in (time, scheduling order): the queue of events due now and the
// heap are one queue to whoever watches the firing order.
func TestDueEventsKeepOrder(t *testing.T) {
	type key struct {
		t   float64
		seq int
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := NewRNG(seed)
		e := New()
		var fired []key
		var pending []*Event
		created, canceled := 0, 0
		var schedule func(at float64)
		schedule = func(at float64) {
			k := key{at, created}
			created++
			var self *Event
			self = e.At(at, func() {
				fired = append(fired, k)
				pending = slices.DeleteFunc(pending, func(ev *Event) bool { return ev == self })
				for n := rng.Intn(3); n > 0 && created < 2000; n-- {
					schedule(e.Now() + float64(rng.Intn(3))) // a third of them due now
				}
				if len(pending) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(pending))
					e.Cancel(pending[i])
					pending = slices.Delete(pending, i, i+1)
					canceled++
				}
			})
			pending = append(pending, self)
		}
		for i := 0; i < 20; i++ {
			schedule(float64(rng.Intn(4)))
		}
		e.RunUntil(5)
		e.Run()
		if len(fired)+canceled != created || e.Pending() != 0 {
			t.Fatalf("seed %d: %d created, %d fired, %d canceled, %d pending", seed, created, len(fired), canceled, e.Pending())
		}
		if !slices.IsSortedFunc(fired, func(a, b key) int {
			if a.t != b.t {
				return int(a.t - b.t)
			}
			return a.seq - b.seq
		}) {
			t.Fatalf("seed %d: events fired out of (time, sequence) order", seed)
		}
	}
}
