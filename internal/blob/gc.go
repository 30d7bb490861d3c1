package blob

import (
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// This file implements the snapshot garbage collector: the storage
// reclamation §7 of the paper lists among the extensions a production
// deployment needs. The repeated snapshotting of the "going back and
// forth" workflow makes every VM accumulate versions; retirement (see
// vmanager.go) makes old versions logically disappear, and the
// collector reclaims the chunks and segment-tree nodes no live
// snapshot reaches — while shadowing and cloning keep everything a
// live version still shares fully intact.
//
// The collector is a concurrent mark-free design:
//
//   - Watermarks + pending sets. Chunk keys and node refs are
//     allocated from monotonic counters, so the collector snapshots
//     both counters first; anything allocated later is exempt from
//     this cycle's sweep. Keys and refs allocated *before* the
//     snapshot whose commit has not published yet are registered as
//     pending at allocation time (atomically with the counter, see
//     replicaSet.AllocPending) and equally exempt — they are
//     unreachable from any root only because their version is still
//     in flight.
//   - Mark. The live snapshot roots (published, not retired, plus
//     anything pinned) are fetched from the version manager, and their
//     trees are walked through the metadata service, all of them as
//     one level-order frontier (WalkReachable), so a cycle costs tree
//     depth rounds of batched gets. Shared subtrees are visited once:
//     shadowing means most of a version's tree belongs to its
//     ancestors.
//   - Sweep. Unmarked tree nodes at or below the watermark are dropped
//     from the metadata providers; unmarked chunk keys at or below it
//     are released, and a stored key is freed on its first release.
//
// Safety against concurrent activity rests on two invariants: new
// allocations are above the watermark or pending at the snapshot, and
// every version a client is actively using — a mirrored image, the
// base of an in-flight commit or clone — is pinned and therefore
// marked. A retirement that races with the mark phase only delays
// reclamation to the next cycle.

// ReclaimListener is notified after a collection cycle with the chunk
// keys that were released, so location caches can drop them — the p2p
// sharing registry retracts reclaimed chunks from its cohorts.
type ReclaimListener interface {
	ChunksReclaimed(ctx *cluster.Ctx, keys []ChunkKey)
}

// GCReport summarizes one collection cycle.
type GCReport struct {
	Skipped      bool  // another cycle was in progress; nothing was done
	LiveVersions int   // snapshot roots marked from
	MarkedNodes  int   // tree nodes reachable from live roots
	MarkedChunks int   // distinct chunk keys reachable
	FreedNodes   int   // tree nodes swept
	FreedChunks  int64 // chunk payloads physically freed
	FreedBytes   int64 // payload bytes physically freed
}

// Collector reclaims storage unreachable from any live snapshot.
// One collector per system; at most one cycle runs at a time — a
// Collect that finds another in progress returns immediately with
// Skipped set (the running cycle is doing the work). The guard is an
// atomic flag rather than a lock so the collector never blocks an
// activity across fabric operations (which the single-threaded sim
// fabric forbids).
type Collector struct {
	sys     *System
	running atomic.Bool

	mu       sync.Mutex // guards listener
	listener ReclaimListener
}

// NewCollector creates a collector for the system.
func NewCollector(sys *System) *Collector {
	return &Collector{sys: sys}
}

// SetListener registers the reclaim listener (nil to remove).
func (g *Collector) SetListener(l ReclaimListener) {
	g.mu.Lock()
	g.listener = l
	g.mu.Unlock()
}

// Collect runs one mark-free cycle and reports what it reclaimed.
// It runs concurrently with deployments, commits and fetches; a call
// overlapping another cycle skips (see Collector).
func (g *Collector) Collect(ctx *cluster.Ctx) (GCReport, error) {
	if !g.running.CompareAndSwap(false, true) {
		return GCReport{Skipped: true}, nil
	}
	defer g.running.Store(false)

	// Watermark + pending snapshots first: anything allocated after
	// this point is above the watermark, and anything allocated before
	// it for a commit that has not yet published is in the pending set
	// — both exempt from this cycle's sweep. A commit that published
	// before this point is reached through LiveRoots below.
	refWM, pendingRefs := g.sys.Meta.PendingSnapshot()
	keyWM, pendingKeys := g.sys.Providers.PendingSnapshot()

	roots := g.sys.VM.LiveRoots(ctx)
	rep := GCReport{LiveVersions: len(roots)}

	// Mark: every live root descends in one frontier, a batched
	// metadata round per tree level.
	liveNodes := make(map[NodeRef]bool)
	liveChunks := make(map[ChunkKey]bool)
	err := WalkReachable(g.sys.Meta.Getter(ctx), roots,
		func(ref NodeRef) bool {
			if liveNodes[ref] {
				return false // shared subtree already marked
			}
			liveNodes[ref] = true
			return true
		},
		nil,
		func(key ChunkKey) { liveChunks[key] = true })
	if err != nil {
		return rep, err
	}
	rep.MarkedNodes = len(liveNodes)
	rep.MarkedChunks = len(liveChunks)

	rep.FreedNodes = g.sys.Meta.Sweep(ctx, refWM, liveNodes, pendingRefs)

	var dead []ChunkKey
	for _, key := range g.sys.Providers.RetainedKeys(keyWM) {
		if !liveChunks[key] && !pendingKeys[key] {
			dead = append(dead, key)
		}
	}
	released, freedBytes := g.sys.Providers.Release(ctx, dead)
	rep.FreedChunks = int64(len(released))
	rep.FreedBytes = freedBytes

	g.mu.Lock()
	l := g.listener
	g.mu.Unlock()

	if l != nil && len(released) > 0 {
		l.ChunksReclaimed(ctx, released)
	}
	return rep, nil
}
