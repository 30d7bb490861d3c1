package cluster

import (
	"sync"

	"blobvfs/internal/sim"
)

// Gate is a one-shot latch usable from both fabrics: activities Wait
// until some other activity Opens it. On the live fabric it is a closed
// channel; on the sim fabric it is a condition variable in virtual
// time. Opening an already-open gate is a no-op. The zero value is a
// closed gate; a Gate must not be copied after first use.
type Gate struct {
	mu   sync.Mutex
	open bool
	ch   chan struct{} // made by the first live waiter
	cond sim.Cond
}

// Reset closes an opened gate again for reuse, keeping the room its
// waiters took. Nobody may wait on the gate or be about to.
func (g *Gate) Reset() { g.open, g.ch = false, nil }

// Wait blocks the activity until the gate opens.
func (g *Gate) Wait(ctx *Ctx) {
	if ctx.proc != nil {
		// Simulation: single-threaded, no locking needed.
		if g.open {
			return
		}
		g.cond.Wait(ctx.proc)
		return
	}
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	ch := g.ch
	g.mu.Unlock()
	<-ch
}

// Open releases all current and future waiters.
func (g *Gate) Open(ctx *Ctx) {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	g.open = true
	if g.ch != nil {
		close(g.ch)
	}
	g.mu.Unlock()
	if ctx.proc != nil {
		g.cond.Broadcast(ctx.proc.Env())
	}
}
