package flownet

import (
	"math"
	"testing"

	"blobvfs/internal/sim"
)

// fillReference is progressive filling as Net.fill did it before the
// per-link crossing lists: a freeze scans every flow for those crossing
// the bottleneck. Net.fill must assign bit-equal rates, because every
// recorded simulation output hangs on them.
func fillReference(flows []*Flow, links []*Link) {
	for _, f := range flows {
		f.assigned = false
		f.rate = 0
	}
	for _, l := range links {
		l.residual = l.capacity
		l.unassigned = 0
	}
	for _, f := range flows {
		for _, l := range f.links {
			l.unassigned++
		}
	}
	unassigned := len(flows)
	for unassigned > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		for _, l := range links {
			if l.unassigned == 0 {
				continue
			}
			s := l.residual / float64(l.unassigned)
			if s < share || (s == share && bottleneck != nil && l.id < bottleneck.id) {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		for _, f := range flows {
			if f.assigned {
				continue
			}
			crosses := false
			for _, l := range f.links {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = share
			f.assigned = true
			unassigned--
			for _, l := range f.links {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.unassigned--
			}
		}
	}
}

// randomLinks creates links whose capacities repeat (ties between
// bottlenecks) and differ by factors that do not divide evenly.
func randomLinks(n *Net, rng *sim.RNG, count int) []*Link {
	links := make([]*Link, count)
	for i := range links {
		links[i] = n.NewLink("l", float64(1+rng.Intn(6))*117.5e6/float64(1+rng.Intn(3)))
	}
	return links
}

// randomPath picks 1–4 links; one path in four names a link twice, as a
// node sending to itself over its own up and down link would.
func randomPath(rng *sim.RNG, links []*Link) []*Link {
	path := make([]*Link, 1+rng.Intn(4))
	for i := range path {
		path[i] = links[rng.Intn(len(links))]
	}
	if len(path) > 1 && rng.Intn(4) == 0 {
		path[len(path)-1] = path[0]
	}
	return path
}

// rateBits runs fill over the flows and returns every rate's bit
// pattern followed by every link's residual.
func rateBits(fill func([]*Flow, []*Link), flows []*Flow, links []*Link) []uint64 {
	fill(flows, links)
	bits := make([]uint64, 0, len(flows)+len(links))
	for _, f := range flows {
		bits = append(bits, math.Float64bits(f.rate))
	}
	for _, l := range links {
		bits = append(bits, math.Float64bits(l.residual))
	}
	return bits
}

// TestFillBitEqualToReference: on seeded random nets, from a handful of
// flows on a few shared links to hundreds on many, the indexed fill
// assigns every flow the reference's rate and leaves every link the
// reference's residual, to the last bit. One Net serves all the nets, so
// its arena is reused growing and shrinking.
func TestFillBitEqualToReference(t *testing.T) {
	n := New(sim.New())
	for seed := int64(0); seed < 300; seed++ {
		rng := sim.NewRNG(seed)
		links := randomLinks(n, rng, 1+rng.Intn(40))
		flows := make([]*Flow, 1+rng.Intn(400))
		for i := range flows {
			flows[i] = &Flow{links: randomPath(rng, links)}
		}
		got := rateBits(n.fill, flows, links)
		want := rateBits(fillReference, flows, links)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: value %d (of %d flows, then links) = %x, reference %x",
					seed, i, len(flows), got[i], want[i])
			}
		}
	}
}

// TestRatesBitEqualToReferenceUnderChurn drives a live net: flows join
// at random instants and leave as they complete, so rates come out of
// the incremental path (recomputeDirty over one component at a time,
// after arrivals and after departures). Once each arrival's instant has
// settled, the rates in force must be bit-equal to a reference fill of
// the whole net.
func TestRatesBitEqualToReferenceUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := sim.New()
		n := New(e)
		rng := sim.NewRNG(seed)
		links := randomLinks(n, rng, 24)
		checked := 0
		var started []*Flow
		e.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 400; i++ {
				p.Sleep(rng.Exp(0.02))
				started = append(started, n.Start(rng.Uniform(1e5, 5e7), randomPath(rng, links)...))
				p.Sleep(0)
				got := make([]uint64, len(n.flows))
				for j, f := range n.flows {
					got[j] = math.Float64bits(f.rate)
				}
				fillReference(n.flows, links)
				for j, f := range n.flows {
					if want := math.Float64bits(f.rate); got[j] != want {
						t.Errorf("seed %d, arrival %d at %.4f: flow %d of %d has rate bits %x, reference %x",
							seed, i, p.Now(), j, len(n.flows), got[j], want)
						return
					}
				}
				checked += len(n.flows)
			}
		})
		e.Run()
		if t.Failed() {
			return
		}
		if done := finishedFlows(started); done != 400 || checked < 2000 {
			t.Fatalf("seed %d: %d flows completed, %d rates compared; the net never got busy", seed, done, checked)
		}
	}
}

// TestBurstRatesBitEqualToReference: workers start flows together, all
// released by one clock tick or by the completion that ends their last
// flow, so an instant sees several arrivals and some arrive at the
// instant of a departure. Once the instant has settled — one refill of
// every component its arrivals touched — every rate in force must be
// bit-equal to a reference fill of the whole net.
func TestBurstRatesBitEqualToReference(t *testing.T) {
	const workers, rounds = 8, 40
	for seed := int64(1); seed <= 5; seed++ {
		e := sim.New()
		n := New(e)
		rng := sim.NewRNG(seed)
		links := randomLinks(n, rng, 16)
		// Four groups of four links: paths stay inside one, so a burst
		// touches several components at once.
		path := func() []*Link {
			g := 4 * rng.Intn(4)
			return randomPath(rng, links[g:g+4])
		}
		var tick sim.Cond
		var started []*Flow
		left := workers
		arrivals := map[float64]int{}
		settled := func(p *sim.Proc) bool {
			p.Sleep(0) // queued behind the instant's settle
			got := make([]uint64, len(n.flows))
			for j, f := range n.flows {
				got[j] = math.Float64bits(f.rate)
			}
			fillReference(n.flows, links)
			for j, f := range n.flows {
				if want := math.Float64bits(f.rate); got[j] != want {
					t.Errorf("seed %d at %.4f (%d arrivals): flow %d of %d has rate bits %x, reference %x",
						seed, p.Now(), arrivals[p.Now()], j, len(n.flows), got[j], want)
					return false
				}
			}
			return true
		}
		e.Go("clock", func(p *sim.Proc) {
			for left > 0 {
				p.Sleep(0.01)
				tick.Broadcast(e)
			}
		})
		for w := 0; w < workers; w++ {
			e.Go("worker", func(p *sim.Proc) {
				defer func() { left-- }()
				for i := 0; i < rounds; i++ {
					tick.Wait(p)
					f := n.Start(rng.Uniform(1e5, 1e6), path()...)
					started = append(started, f)
					arrivals[p.Now()]++
					if !settled(p) {
						return
					}
					n.WaitFlow(p, f)
					started = append(started, n.Start(rng.Uniform(1e5, 5e6), path()...))
					arrivals[p.Now()]++
					if !settled(p) {
						return
					}
				}
			})
		}
		e.Run()
		if t.Failed() {
			return
		}
		bursts := 0
		for _, k := range arrivals {
			if k > 1 {
				bursts++
			}
		}
		if done := finishedFlows(started); done != 2*workers*rounds || bursts < 60 {
			t.Fatalf("seed %d: %d flows completed, %d instants with several arrivals", seed, done, bursts)
		}
	}
}

// finishedFlows counts the flows of started that have completed.
func finishedFlows(started []*Flow) int {
	done := 0
	for _, f := range started {
		if f.Finished() {
			done++
		}
	}
	return done
}
