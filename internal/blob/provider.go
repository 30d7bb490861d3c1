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
// optional replication degree. Placement, liveness, failover and
// repair are the embedded replicaSet's (replicaset.go), whose lock mu
// also guards the map below; this type adds what is chunk-specific:
// payloads and the cost of moving a chunk.
//
// Every key is allocated once (AllocPending) and put once, so a stored
// key owns its payload alone and its first Release frees it. Versions
// share unchanged chunks by shadowing and cloning (paper §3.2), not by
// content.
type ProviderSet struct {
	replicaSet[ChunkKey]

	// chunks is the one record of what is stored, guarded by the replica
	// set's mu. It is a RWMutex so the hot fetch path (Get/Peek) runs
	// under a shared lock and the 16-way parallel fetchers of every
	// client in a deployment stop serializing here; writers (PutBatch,
	// Release) take the exclusive side. Per-provider read counters are
	// atomics preallocated per node, off the lock entirely.
	chunks map[ChunkKey]Payload

	readsBy  map[cluster.NodeID]*atomic.Int64 // chunk reads served, per provider
	writesBy map[cluster.NodeID]*atomic.Int64 // write RPCs received, per provider

	// Reads and Writes count chunk-level operations. Reclaimed and
	// ReclaimedBytes count chunk payloads physically freed by Release.
	Reads, Writes             atomic.Int64
	Reclaimed, ReclaimedBytes atomic.Int64
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
	ps := &ProviderSet{
		chunks:   make(map[ChunkKey]Payload),
		readsBy:  readsBy,
		writesBy: writesBy,
	}
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

// storedKeys, copyBytes and chargeCopy are the chunk tier's side of a
// repair sweep (replicaTier): every stored chunk is a candidate, and
// a copy is a disk read at the surviving source, the transfer over,
// and a local write-back at the destination. A chunk whose last copy
// is gone stays unrepaired — the cohort sharing layer is then the only
// remaining source.
func (ps *ProviderSet) storedKeys() []ChunkKey {
	keys := make([]ChunkKey, 0, len(ps.chunks))
	for key := range ps.chunks {
		keys = append(keys, key)
	}
	return keys
}

func (ps *ProviderSet) copyBytes(key ChunkKey) int32 { return ps.chunks[key].Size }

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
// A ring replica that is down takes no copy — the writer records it as
// a void and pushes the missing copy to a live substitute instead
// (writing around the failure), so the chunk is born at full
// replication degree whenever enough providers are up. Keys that could
// not be placed anywhere fail with ErrNoReplica (first error
// returned); the rest of the round commits regardless.
func (ps *ProviderSet) PutBatch(ctx *cluster.Ctx, puts []ChunkPut) error {
	if len(puts) == 0 {
		return nil
	}
	n := len(puts)

	// Placement pass: accumulate each provider's share of the round.
	bytesTo := make(map[cluster.NodeID]int64)
	diskTo := make(map[cluster.NodeID]int64)
	stored := make([]int, n)
	// Dead ring members and their substitutes, per put; allocated when
	// the first dead member shows up.
	var deadRings, subsOf [][]cluster.NodeID
	charge := func(prov cluster.NodeID, p Payload) {
		bytesTo[prov] += int64(p.Size) + 32
		diskTo[prov] += int64(p.Size)
	}
	for i, pt := range puts {
		live, dead, subs := ps.place(pt.Key)
		for _, prov := range live {
			charge(prov, pt.Payload)
		}
		stored[i] = len(live)
		// Write around dead replicas: push their copies to live
		// providers outside the ring.
		if len(dead) > 0 {
			if deadRings == nil {
				deadRings, subsOf = make([][]cluster.NodeID, n), make([][]cluster.NodeID, n)
			}
			deadRings[i], subsOf[i] = dead, subs
			for _, s := range subs {
				charge(s, pt.Payload)
			}
			stored[i] += len(subs)
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
	ps.chunks = presized(ps.chunks, n)
	for i, pt := range puts {
		if stored[i] == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("blob: chunk %d: %w", pt.Key, ErrNoReplica)
			}
			continue
		}
		ps.chunks[pt.Key] = pt.Payload
		if deadRings != nil && len(deadRings[i]) > 0 {
			ps.recordLocked(pt.Key, deadRings[i], subsOf[i])
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
	p, ok := ps.chunks[key]
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

// Peek returns the stored payload for key without charging any
// provider cost. This is the escape hatch the p2p sharing layer uses
// to serve a chunk from a peer's local mirror: the payload bytes are
// authoritative, only the costs move to the peer.
func (ps *ProviderSet) Peek(key ChunkKey) (Payload, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	p, ok := ps.chunks[key]
	return p, ok
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
func (ps *ProviderSet) ChunkCount() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.chunks)
}

// RetainedKeys returns every stored key up to the watermark: the
// sweep candidate set. Keys absent from it were never stored or
// already released.
func (ps *ProviderSet) RetainedKeys(upTo ChunkKey) []ChunkKey {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make([]ChunkKey, 0, len(ps.chunks))
	for k := range ps.chunks {
		if k <= upTo {
			out = append(out, k)
		}
	}
	return out
}

// Release frees each stored key: its payload, its repair copies' record
// and its replicas' disk space. Keys already released or never stored
// are ignored, so Release is idempotent per key. It returns the keys
// actually released and the payload bytes freed, and charges one small
// batched RPC per replica provider of the released keys — deletion is
// a metadata operation; the freed blocks are trimmed asynchronously.
func (ps *ProviderSet) Release(ctx *cluster.Ctx, keys []ChunkKey) (released []ChunkKey, freedBytes int64) {
	perNode := make(map[cluster.NodeID]int64)
	ps.mu.Lock()
	for _, key := range keys {
		p, ok := ps.chunks[key]
		if !ok {
			continue
		}
		delete(ps.chunks, key)
		ps.forgetLocked(key)
		released = append(released, key)
		freedBytes += int64(p.Size)
		ps.Reclaimed.Add(1)
		ps.ReclaimedBytes.Add(int64(p.Size))
		for _, prov := range ps.Replicas(key) {
			perNode[prov]++
		}
	}
	ps.mu.Unlock()
	// Charge per-provider deletion batches in deterministic ring order.
	for _, prov := range ps.nodes {
		if c := perNode[prov]; c > 0 && ps.lv.Alive(prov) {
			ctx.RPC(prov, c*24, 16)
		}
	}
	return released, freedBytes
}

// StoredBytes returns the total payload bytes stored (one copy counted
// per chunk; multiply by the replication degree for raw usage).
func (ps *ProviderSet) StoredBytes() int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var total int64
	for _, p := range ps.chunks {
		total += int64(p.Size)
	}
	return total
}

// LiveLocations returns the providers currently able to serve key —
// live ring replicas plus live repair copies — in failover order. It
// is a zero-cost inspection hook for invariant tests and diagnostics.
func (ps *ProviderSet) LiveLocations(key ChunkKey) []cluster.NodeID {
	ps.mu.RLock()
	_, ok := ps.chunks[key]
	locs := ps.locationsLocked(key)
	ps.mu.RUnlock()
	if !ok {
		return nil
	}
	return ps.liveOf(locs)
}
