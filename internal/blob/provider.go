package blob

import (
	"fmt"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// ProviderSet is the data plane: chunk payloads stored on the local
// disks of provider nodes, striped by key — block-cyclic over windows
// of clientParallel providers (replicaSet.primarySlot), which on a pool
// no wider than that is the round-robin of paper §3.1.3 — with an
// optional replication degree. The payloads, placement, liveness,
// failover, repair and deletion are the embedded replicaSet's
// (replicaset.go); this type adds what is chunk-specific: the cost of
// storing, reading and moving a chunk. Per-provider counters are
// atomics preallocated per node, off the lock entirely.
//
// Every key is allocated once (AllocPending) and put once, so a stored
// key owns its payload alone and the collection that sweeps it frees
// it. Versions share unchanged chunks by shadowing and cloning (paper
// §3.2), not by content.
type ProviderSet struct {
	replicaSet[ChunkKey, Payload]

	readsBy  map[cluster.NodeID]*atomic.Int64 // chunk reads served, per provider
	writesBy map[cluster.NodeID]*atomic.Int64 // write RPCs received, per provider

	// Reads and Writes count chunk-level operations; the replica
	// set's Freed and FreedBytes count the payloads collections freed.
	Reads, Writes atomic.Int64
	// PutRPCs counts the provider-bound RPCs the write path issued: one
	// per distinct provider per PutBatch round. Writes/PutRPCs is
	// therefore the write-side batching factor, the twin of the
	// metadata service's Gets/NodesServed.
	PutRPCs atomic.Int64
	// FailedReads counts reads that found no live copy at all
	// (ErrNoReplica); Failovers and Rereplicated are the replica set's.
	FailedReads atomic.Int64
	// tierReads counts chunk reads by the locality tier between the
	// reader and the provider that served it (everything lands in
	// TierRack on a flat topology, TierLocal when reader == provider).
	tierReads [cluster.NumTiers]atomic.Int64
}

// NewProviderSet creates a chunk store over the given nodes with the
// given replication degree (≥1).
func NewProviderSet(nodes []cluster.NodeID, replicas int) *ProviderSet {
	if len(nodes) == 0 {
		panic("blob: provider set needs at least one node")
	}
	if replicas < 1 || replicas > len(nodes) {
		panic(fmt.Sprintf("blob: replication degree %d invalid for %d providers", replicas, len(nodes)))
	}
	readsBy := make(map[cluster.NodeID]*atomic.Int64, len(nodes))
	writesBy := make(map[cluster.NodeID]*atomic.Int64, len(nodes))
	for _, n := range nodes {
		readsBy[n] = &atomic.Int64{}
		writesBy[n] = &atomic.Int64{}
	}
	ps := &ProviderSet{readsBy: readsBy, writesBy: writesBy}
	ps.init(ps, "rereplicate", nodes, replicas, min(clientParallel, len(nodes)))
	return ps
}

// TierReads returns the chunk reads served per locality tier, indexed
// by cluster.Tier — the distribution topology-aware selection shifts
// toward the near tiers.
func (ps *ProviderSet) TierReads() [cluster.NumTiers]int64 {
	var out [cluster.NumTiers]int64
	for i := range ps.tierReads {
		out[i] = ps.tierReads[i].Load()
	}
	return out
}

// copyBytes and chargeCopy are the chunk tier's side of a repair sweep
// (replicaTier): a copy is a disk read at the surviving source, the
// transfer over, and a local write-back at the destination. A chunk
// whose last copy is gone stays unrepaired — the cohort sharing layer
// is then the only remaining source.
func (ps *ProviderSet) copyBytes(p Payload) int32 { return p.Size }

func (ps *ProviderSet) chargeCopy(cc *cluster.Ctx, src, dst cluster.NodeID, bytes int32) {
	cc.DiskRead(src, int64(bytes))
	cc.RPC(src, 32, int64(bytes))
	cc.DiskWriteAsync(dst, int64(bytes))
}

// countPutRPC records one provider-bound write RPC.
func (ps *ProviderSet) countPutRPC(prov cluster.NodeID) {
	ps.PutRPCs.Add(1)
	if c, ok := ps.writesBy[prov]; ok {
		c.Add(1)
	}
}

// NodePutRPCs returns a copy of the per-provider write-RPC counters:
// one RPC per provider per commit round.
func (ps *ProviderSet) NodePutRPCs() map[cluster.NodeID]int64 {
	out := make(map[cluster.NodeID]int64, len(ps.writesBy))
	for n, w := range ps.writesBy {
		if v := w.Load(); v > 0 {
			out[n] = v
		}
	}
	return out
}

// ChunkPut names one key/payload pair for PutBatch.
type ChunkPut struct {
	Key     ChunkKey
	Payload Payload
}

// PutBatch stores a whole commit round of chunks, every key on all of
// its replicas, and charges the network per provider instead of per
// chunk: every payload bound for one provider travels in a single RPC
// (the write-side twin of MetaService.PutBatch), followed by an append
// to that provider's log (Ctx.DiskAppend; BlobSeer acknowledges once
// the data is in the write-back buffer, paper §5.3). The shares go out
// over at most clientParallel concurrent activities, the client's
// connection pool: up to that many providers all receive theirs at
// once and the round takes as long as its slowest provider, while a
// pool of a hundred aggregated disks is served sixteen at a time
// instead of holding a simulated process per provider per committing
// instance.
//
// A ring replica that is down takes no copy — the writer pushes the
// missing copy to a live substitute instead (writing around the
// failure) and records the key's holders as its off-ring record, so the
// chunk is born at full replication degree whenever enough providers
// are up. Keys that could not be placed anywhere fail with ErrNoReplica
// (first error returned); the rest of the round commits regardless.
func (ps *ProviderSet) PutBatch(ctx *cluster.Ctx, puts []ChunkPut) error {
	if len(puts) == 0 {
		return nil
	}
	n := len(puts)

	// Placement pass: accumulate each provider's share of the round.
	bytesTo := make(map[cluster.NodeID]int64)
	diskTo := make(map[cluster.NodeID]int64)
	stored := make([]int, n)
	// The off-ring records of the round, per put; allocated when the
	// first dead ring member shows up.
	var offOf [][]cluster.NodeID
	for i, pt := range puts {
		locs, off := ps.place(pt.Key)
		for _, prov := range locs {
			bytesTo[prov] += int64(pt.Payload.Size) + 32
			diskTo[prov] += int64(pt.Payload.Size)
		}
		stored[i] = len(locs)
		if off {
			if offOf == nil {
				offOf = make([][]cluster.NodeID, n)
			}
			offOf[i] = locs
		}
	}

	// One RPC per distinct provider carries its whole share, the
	// providers taken in ring order so the run is deterministic.
	targets := make([]cluster.NodeID, 0, len(bytesTo))
	for _, prov := range ps.nodes {
		if _, ok := bytesTo[prov]; ok {
			targets = append(targets, prov)
			ps.countPutRPC(prov)
		}
	}
	forEachParallel(ctx, "put-batch", len(targets), func(cc *cluster.Ctx, t int) {
		prov := targets[t]
		cc.RPC(prov, bytesTo[prov], 16)
		if d := diskTo[prov]; d > 0 {
			cc.DiskAppend(prov, d)
		}
	})

	var firstErr error
	ps.mu.Lock()
	for i, pt := range puts {
		if stored[i] == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("blob: chunk %d: %w", pt.Key, ErrNoReplica)
			}
			continue
		}
		ps.recs.put(pt.Key, pt.Payload)
		if offOf != nil && offOf[i] != nil {
			ps.off[pt.Key] = offOf[i]
		}
		ps.Writes.Add(1)
	}
	ps.mu.Unlock()
	return firstErr
}

// Get fetches the payload for key, charging the provider's disk read
// and the transfer back. Location choice is primary-first with
// failover: dead holders are skipped (each one probed costs the
// reader a timed-out request), and only when every copy is gone does
// the read fail with ErrNoReplica.
func (ps *ProviderSet) Get(ctx *cluster.Ctx, key ChunkKey) (Payload, error) {
	ps.mu.RLock()
	p, ok := ps.recs.get(key)
	// One shared acquisition covers the lookup and the location list —
	// in the fault-free common case the shared ring itself, so the hot
	// read path allocates nothing for it.
	locs := ps.locationsLocked(key)
	ps.mu.RUnlock()
	if !ok {
		return Payload{}, notFound("chunk", key)
	}
	prov, probes, ok := ps.pick(ctx.Node(), locs)
	probeWait(ctx, probes)
	if !ok {
		ps.FailedReads.Add(1)
		return Payload{}, fmt.Errorf("blob: chunk %d: %w", key, ErrNoReplica)
	}
	ctx.DiskRead(prov, int64(p.Size))
	ctx.RPC(prov, 32, int64(p.Size))
	ps.Reads.Add(1)
	ps.readsBy[prov].Add(1)
	ps.tierReads[ps.topo.Tier(ctx.Node(), prov)].Add(1)
	return p, nil
}

// NodeReads returns a copy of the per-provider chunk-read counters —
// the distribution whose maximum is the hot-spot a flash crowd builds.
func (ps *ProviderSet) NodeReads() map[cluster.NodeID]int64 {
	out := make(map[cluster.NodeID]int64, len(ps.readsBy))
	for n, r := range ps.readsBy {
		if v := r.Load(); v > 0 {
			out[n] = v
		}
	}
	return out
}

// MaxNodeReads returns the chunk reads served by the busiest provider.
func (ps *ProviderSet) MaxNodeReads() int64 {
	var most int64
	for _, r := range ps.readsBy {
		if v := r.Load(); v > most {
			most = v
		}
	}
	return most
}

// ChunkCount returns the number of distinct chunks stored.
func (ps *ProviderSet) ChunkCount() int { return ps.count() }

// StoredBytes returns the total payload bytes stored (one copy counted
// per chunk; multiply by the replication degree for raw usage).
func (ps *ProviderSet) StoredBytes() int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var total int64
	ps.recs.all(func(_ ChunkKey, p Payload) bool {
		total += int64(p.Size)
		return true
	})
	return total
}
