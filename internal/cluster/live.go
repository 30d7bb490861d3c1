package cluster

import (
	"sync"
	"sync/atomic"
)

// Live is the zero-cost fabric: activities are real goroutines, every
// charge operation returns immediately, and only traffic is accounted.
// It exists so that the entire storage stack (blob store, mirroring
// module, qcow2, PVFS, middleware) can be exercised with real bytes and
// real concurrency in unit tests and examples, independent of the
// simulator.
type Live struct {
	cfg     Config
	wg      sync.WaitGroup
	traffic atomic.Int64
}

// NewLive returns a live fabric with the given number of nodes.
func NewLive(nodes int) *Live {
	cfg := DefaultConfig(nodes)
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Live{cfg: cfg}
}

// Nodes returns the cluster size.
func (f *Live) Nodes() int { return f.cfg.Nodes }

// Config returns the physical constants (unused for costing on Live).
func (f *Live) Config() Config { return f.cfg }

// Now returns 0: the live fabric has no virtual clock.
func (f *Live) Now() float64 { return 0 }

// NetTraffic returns cumulative off-node traffic in bytes.
func (f *Live) NetTraffic() int64 { return f.traffic.Load() }

// ResetTraffic zeroes the traffic counter.
func (f *Live) ResetTraffic() { f.traffic.Store(0) }

// Run executes fn on node 0 and waits for all spawned activities.
func (f *Live) Run(fn func(*Ctx)) {
	fn(&Ctx{fab: f, node: 0})
	f.wg.Wait()
}

type liveTask struct {
	done chan struct{}
}

func (*liveTask) isTask() {}

func (f *Live) spawn(name string, node NodeID, _ *Ctx, fn func(*Ctx)) Task {
	f.cfg.checkNode(node)
	t := &liveTask{done: make(chan struct{})}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(t.done)
		fn(&Ctx{fab: f, node: node})
	}()
	return t
}

func (f *Live) wait(_ *Ctx, t Task) { <-t.(*liveTask).done }

func (f *Live) sleep(_ *Ctx, d float64) {}

func (f *Live) rpc(_ *Ctx, from, to NodeID, reqBytes, respBytes int64) {
	f.cfg.checkNode(from)
	f.cfg.checkNode(to)
	if from != to {
		f.traffic.Add(reqBytes + respBytes)
	}
}

func (f *Live) disk(_ *Ctx, node NodeID, bytes int64, _ writeMode) { f.cfg.checkNode(node) }
