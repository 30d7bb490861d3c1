package blob

import (
	"sync"

	"blobvfs/internal/cluster"
)

// This file holds the client's singleflight machinery: concurrent
// cold-cache operations on the same key are coalesced so only one
// caller (the leader) pays the RPC and everyone else (followers)
// shares its result. The protocol is subtle in two ways, so it lives
// here exactly once:
//
//   - Waiting is fabric-aware: followers block on a cluster.Gate,
//     which parks correctly both as a real goroutine and as a
//     discrete-event simulation process (blocking on a bare sync
//     primitive across the leader's RPC would stall the sim
//     scheduler). The gate is allocated lazily, under the group
//     lock, by the first follower — the common uncontended miss
//     pays one small struct and no channel.
//
//   - The leader completes a flight by removing it from the map
//     BEFORE opening the gate (finish): a caller that arrives after
//     removal takes the cache path instead, and a follower that
//     already holds the flight reads its result only after the gate
//     opens, which orders the leader's writes ahead of the read on
//     both fabrics.

// flight is one in-flight operation; followers share the leader's
// val/err through it.
type flight[V any] struct {
	gate *cluster.Gate // allocated by the first follower, under the group mu
	val  V
	err  error
}

// follow returns the flight's gate for a follower to wait on,
// allocating it on first use. Must be called with the group lock
// held.
func (f *flight[V]) follow() *cluster.Gate {
	if f.gate == nil {
		f.gate = cluster.NewGate()
	}
	return f.gate
}

// flightGroup coalesces concurrent operations keyed by K.
type flightGroup[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

func newFlightGroup[K comparable, V any]() *flightGroup[K, V] {
	return &flightGroup[K, V]{flights: make(map[K]*flight[V])}
}

// do returns recheck's value if it finds one, joins an existing
// flight for key, or leads a new one running fetch. recheck (may be
// nil) runs under the group lock, closing the window between a
// completed flight's cache store and its removal from the map.
func (g *flightGroup[K, V]) do(ctx *cluster.Ctx, key K, recheck func() (V, bool), fetch func() (V, error)) (V, error) {
	g.mu.Lock()
	if recheck != nil {
		if v, ok := recheck(); ok {
			g.mu.Unlock()
			return v, nil
		}
	}
	if f, ok := g.flights[key]; ok {
		gate := f.follow()
		g.mu.Unlock()
		gate.Wait(ctx)
		return f.val, f.err
	}
	f := &flight[V]{}
	g.flights[key] = f
	g.mu.Unlock()

	f.val, f.err = fetch()
	g.finish(ctx, []K{key}, f)
	return f.val, f.err
}

// finish completes a led flight: it is removed from the map — from
// under every key its leader registered it for — and its followers (if
// any) released. The flight's err, and whatever else its followers
// read, must be set before the call.
func (g *flightGroup[K, V]) finish(ctx *cluster.Ctx, keys []K, f *flight[V]) {
	g.mu.Lock()
	for _, key := range keys {
		delete(g.flights, key)
	}
	gate := f.gate
	g.mu.Unlock()
	if gate != nil {
		gate.Open(ctx)
	}
}
