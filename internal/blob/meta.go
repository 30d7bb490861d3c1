package blob

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// metaShards stripes the node store so concurrent readers (the 16-way
// parallel fetchers of every client, times the number of clients in a
// deployment) do not serialize on one map mutex. Power of two; node
// refs are allocated sequentially, so masking spreads them evenly.
const metaShards = 16

type metaShard struct {
	mu    sync.RWMutex
	nodes map[NodeRef]TreeNode
}

// MetaService is the distributed metadata store: immutable segment-tree
// nodes spread over a set of metadata provider nodes by reference hash,
// as in BlobSeer's metadata DHT. Because nodes are immutable, clients
// cache them freely (see Client); the service itself never invalidates.
//
// The in-memory store is hash-striped (metaShards segments, RWMutex
// each): nodes are written once and read many times, so the hot read
// path takes only a shared lock on one stripe.
//
// At replication degree 1 (the default) every ref lives on exactly one
// home provider and the control plane is assumed fault-free — the
// pre-replication layout, kept byte-identical for every recorded
// scenario. SetReplication(r) switches each ref to an r-replica ring
// over the providers, mirroring the chunk plane: writes fan out to
// every live ring member and write around dead ones (voids +
// substitutes), reads probe the nearest live replica first and fail
// over down the ring, and a liveness-driven repair sweep
// (metarepair.go) restores the degree after every transition.
type MetaService struct {
	providers []cluster.NodeID
	replicas  int
	// topo, when enabled, makes replicated placement and reads
	// locality-aware, exactly as in ProviderSet: rings spread across
	// failure domains and gets probe the reader's nearest live copy
	// first.
	topo cluster.Topology
	// rings[s] is the replica ring of primary slot s (replicaRings).
	rings   [][]cluster.NodeID
	nextRef atomic.Uint64

	shards [metaShards]metaShard

	pendMu  sync.Mutex
	pending map[NodeRef]bool // refs of in-flight, unpublished versions

	// repMu guards the degraded-placement bookkeeping. repairs holds
	// substitute copies created by degraded puts or repair sweeps;
	// voids lists ring replicas that never received their copy (down
	// at put time) — not locations until a sweep backfills them. Both
	// stay empty at replication degree 1.
	repMu   sync.RWMutex
	repairs map[NodeRef][]cluster.NodeID
	voids   map[NodeRef][]cluster.NodeID

	alive map[cluster.NodeID]*atomic.Bool // provider liveness flags

	// Puts and Gets count service operations (after batching);
	// NodesServed counts individual tree nodes returned by Get/GetBatch
	// (so Gets/NodesServed exposes the batching factor); Freed counts
	// tree nodes reclaimed by garbage-collection sweeps.
	Puts, Gets, NodesServed, Freed atomic.Int64
	// Failovers counts gets a dead replica pushed onto a surviving
	// one; FailedGets counts gets that found no live copy (the failed
	// descents a metadata outage is judged by); Rereplicated counts
	// tree-node copies restored by repair sweeps. All three stay zero
	// at replication degree 1.
	Failovers, FailedGets, Rereplicated atomic.Int64
	// tierGets counts replicated gets by the locality tier of the
	// replica that served them (meaningful only with a topology).
	tierGets [cluster.NumTiers]atomic.Int64
}

// NewMetaService creates a metadata store over the given provider nodes.
func NewMetaService(providers []cluster.NodeID) *MetaService {
	if len(providers) == 0 {
		panic("blob: metadata service needs at least one provider")
	}
	m := &MetaService{
		providers: providers,
		replicas:  1,
		rings:     replicaRings(providers, 1, cluster.Topology{}),
		pending:   make(map[NodeRef]bool),
		repairs:   make(map[NodeRef][]cluster.NodeID),
		voids:     make(map[NodeRef][]cluster.NodeID),
		alive:     make(map[cluster.NodeID]*atomic.Bool, len(providers)),
	}
	for i := range m.shards {
		m.shards[i].nodes = make(map[NodeRef]TreeNode)
	}
	for _, n := range providers {
		a := &atomic.Bool{}
		a.Store(true)
		m.alive[n] = a
	}
	return m
}

// SetReplication sets the metadata replication degree. Call before any
// traffic; degree 1 is the legacy single-home layout.
func (m *MetaService) SetReplication(r int) {
	if r < 1 || r > len(m.providers) {
		panic("blob: metadata replication degree out of range")
	}
	m.replicas = r
	m.rings = replicaRings(m.providers, r, m.topo)
}

// SetTopology makes replicated placement and reads locality-aware.
// Call before any traffic.
func (m *MetaService) SetTopology(t cluster.Topology) {
	m.topo = t
	m.rings = replicaRings(m.providers, m.replicas, t)
}

// ReplicationDegree returns the configured metadata replication degree.
func (m *MetaService) ReplicationDegree() int { return m.replicas }

// TierGets returns the per-tier counts of replicated gets, indexed by
// cluster.Tier.
func (m *MetaService) TierGets() [cluster.NumTiers]int64 {
	var out [cluster.NumTiers]int64
	for i := range m.tierGets {
		out[i] = m.tierGets[i].Load()
	}
	return out
}

func (m *MetaService) shard(ref NodeRef) *metaShard {
	return &m.shards[uint64(ref)&(metaShards-1)]
}

// Home returns the metadata provider primarily responsible for a
// reference (the first ring member at any replication degree).
func (m *MetaService) Home(ref NodeRef) cluster.NodeID {
	return m.providers[uint64(ref)%uint64(len(m.providers))]
}

// primarySlot returns the index into m.providers of a ref's primary
// replica; the ring walks of Replicas, ReReplicate and substitutes all
// start here.
func (m *MetaService) primarySlot(ref NodeRef) int {
	return int(uint64(ref) % uint64(len(m.providers)))
}

// Replicas returns the metadata providers responsible for a ref,
// primary first: the precomputed ring of the ref's primary slot, built
// by the same walk as the chunk tier's (replicaRings). The slice is
// shared by every ref of that slot; callers must not modify it.
func (m *MetaService) Replicas(ref NodeRef) []cluster.NodeID {
	return m.rings[m.primarySlot(ref)]
}

// locationsLocked returns the nodes holding a ref's copies in failover
// order: ring replicas that actually stored it (minus voids), then the
// substitute locations degraded puts and repair sweeps created. The
// caller holds m.repMu (either side).
func (m *MetaService) locationsLocked(ref NodeRef) []cluster.NodeID {
	ring := m.Replicas(ref)
	voids := m.voids[ref]
	out := make([]cluster.NodeID, 0, len(ring)+len(m.repairs[ref]))
	for _, r := range ring {
		if !containsProvider(voids, r) {
			out = append(out, r)
		}
	}
	return append(out, m.repairs[ref]...)
}

// locations is locationsLocked taking the lock itself, with a fast
// path for the fault-free common case (no voids or repairs anywhere:
// the location set IS the ring).
func (m *MetaService) locations(ref NodeRef) []cluster.NodeID {
	m.repMu.RLock()
	if len(m.voids) == 0 && len(m.repairs) == 0 {
		m.repMu.RUnlock()
		return m.Replicas(ref)
	}
	locs := m.locationsLocked(ref)
	m.repMu.RUnlock()
	return locs
}

// substitutes picks n live providers outside ref's ring, walking the
// provider list from the ref's primary slot (deterministic). Fewer
// than n may be returned when not enough providers are up.
func (m *MetaService) substitutes(ref NodeRef, ring []cluster.NodeID, n int) []cluster.NodeID {
	first := m.primarySlot(ref)
	var out []cluster.NodeID
	for i := 0; i < len(m.providers) && len(out) < n; i++ {
		cand := m.providers[(first+i)%len(m.providers)]
		if m.isAlive(cand) && !containsProvider(ring, cand) {
			out = append(out, cand)
		}
	}
	return out
}

// pickReplica chooses the replica that serves a get: locations in
// failover order, nearest first when a topology is set, skipping dead
// holders. Each dead holder probed costs the reader a timed-out
// request (the probes return value; callers charge the wait so
// batches can overlap their probes). ok is false when every copy is
// down, which counts as a failed get.
func (m *MetaService) pickReplica(reader cluster.NodeID, ref NodeRef) (prov cluster.NodeID, probes int, ok bool) {
	locs := nearestFirst(m.topo, reader, m.locations(ref))
	prov = -1
	failover := false
	for i, r := range locs {
		if m.isAlive(r) {
			prov, failover = r, i > 0
			break
		}
		probes++
	}
	if prov < 0 {
		m.FailedGets.Add(1)
		return -1, probes, false
	}
	if failover {
		m.Failovers.Add(1)
	}
	m.tierGets[m.topo.Tier(reader, prov)].Add(1)
	return prov, probes, true
}

// Get fetches one tree node, charging a small RPC to the replica that
// serves it. At replication degree 1 that is always the home provider
// (the legacy fault-free layout, liveness ignored); otherwise the
// nearest live replica serves, dead ones cost a probe each, and a ref
// with every copy down fails with ErrNoReplica.
func (m *MetaService) Get(ctx *cluster.Ctx, ref NodeRef) (TreeNode, error) {
	prov := m.Home(ref)
	if m.replicas > 1 {
		p, probes, ok := m.pickReplica(ctx.Node(), ref)
		if probes > 0 {
			cfg := ctx.Fabric().Config()
			ctx.Sleep(float64(probes) * (cfg.RTT + cfg.ReqOverhead))
		}
		if !ok {
			return TreeNode{}, fmt.Errorf("blob: metadata node %d: %w", ref, ErrNoReplica)
		}
		prov = p
	}
	ctx.RPC(prov, 16, treeNodeWire)
	m.Gets.Add(1)
	sh := m.shard(ref)
	sh.mu.RLock()
	n, ok := sh.nodes[ref]
	sh.mu.RUnlock()
	if !ok {
		return TreeNode{}, notFound("metadata node", ref)
	}
	m.NodesServed.Add(1)
	return n, nil
}

// MissingNodesError reports how many refs of a batched metadata get
// could not be served — refs with no stored node and, with
// replication, refs whose every copy was down. It unwraps to a
// *NotFoundError for the first failing ref (and through it to
// ErrNotFound), so existing errors.Is and errors.As checks keep
// matching.
type MissingNodesError struct {
	// Missing is the number of refs the batch could not serve.
	Missing int
	// First is the first failing ref, in batch order.
	First NodeRef
}

// Error renders the count and the first failing ref.
func (e *MissingNodesError) Error() string {
	return fmt.Sprintf("blob: batched metadata get missing %d node(s), first ref %d: not found", e.Missing, e.First)
}

// Unwrap yields the first failing ref's *NotFoundError.
func (e *MissingNodesError) Unwrap() error {
	return &NotFoundError{Kind: "metadata node", What: e.First}
}

// GetBatch fetches many tree nodes at once, grouping the refs by
// serving provider and charging one RPC per distinct provider — the
// read-side twin of PutBatch, and what turns a client's level-order
// tree descent into depth rounds instead of node-count round trips.
// The result is aligned with refs; a ref with no stored node fails
// the batch with a *MissingNodesError (the full round is still
// charged — the providers did the lookups).
func (m *MetaService) GetBatch(ctx *cluster.Ctx, refs []NodeRef) ([]TreeNode, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	out := make([]TreeNode, len(refs))
	if err := m.GetBatchInto(ctx, refs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetBatchInto is GetBatch resolving into a caller-provided slice
// (len(out) must be len(refs)), so tight descent loops can reuse one
// buffer per level instead of allocating twice.
//
// Partial-fill contract: on error every found ref is still filled in
// (its out entry is valid()); the missing ones stay the zero
// TreeNode, and the returned *MissingNodesError carries how many refs
// failed and the first failing ref. With replication a ref whose
// every copy is down also counts as missing (and as a failed get);
// the rest of the batch is still charged and filled.
func (m *MetaService) GetBatchInto(ctx *cluster.Ctx, refs []NodeRef, out []TreeNode) error {
	var down []bool // refs with no live replica (replicated mode only)
	if m.replicas == 1 {
		// Legacy single-home layout: per-ring-position request counts
		// (refs map to providers by modulo, so the position IS the
		// provider) — one small slice instead of a map per descent
		// level, on the stack for pools of up to 128 providers (every
		// commit makes one such round per tree level) — charged
		// unconditionally, liveness ignored.
		var inline [128]int64
		counts := inline[:]
		if len(m.providers) > len(inline) {
			counts = make([]int64, len(m.providers))
		}
		for _, ref := range refs {
			counts[uint64(ref)%uint64(len(m.providers))]++
		}
		// Charge per-provider batches in deterministic (provider ring) order.
		for pi, prov := range m.providers {
			if c := counts[pi]; c > 0 {
				ctx.RPC(prov, c*16, c*treeNodeWire)
				m.Gets.Add(1)
			}
		}
	} else {
		// Replicated layout: pick each ref's serving replica, then
		// charge per-provider batches. The refs of one level are
		// probed in parallel, so the batch waits once for the worst
		// ref's dead-holder probes rather than summing them.
		counts := make(map[cluster.NodeID]int64, len(m.providers))
		maxProbes := 0
		for i, ref := range refs {
			prov, probes, ok := m.pickReplica(ctx.Node(), ref)
			if probes > maxProbes {
				maxProbes = probes
			}
			if !ok {
				if down == nil {
					down = make([]bool, len(refs))
				}
				down[i] = true
				continue
			}
			counts[prov]++
		}
		if maxProbes > 0 {
			cfg := ctx.Fabric().Config()
			ctx.Sleep(float64(maxProbes) * (cfg.RTT + cfg.ReqOverhead))
		}
		for _, prov := range m.providers {
			if c := counts[prov]; c > 0 {
				ctx.RPC(prov, c*16, c*treeNodeWire)
				m.Gets.Add(1)
			}
		}
	}
	var missing *MissingNodesError
	served := int64(0)
	for i, ref := range refs {
		if down != nil && down[i] {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			continue
		}
		sh := m.shard(ref)
		sh.mu.RLock()
		n, ok := sh.nodes[ref]
		sh.mu.RUnlock()
		if !ok {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			continue
		}
		out[i] = n
		served++
	}
	m.NodesServed.Add(served)
	if missing == nil {
		return nil
	}
	return missing
}

// PutBatch stores freshly built nodes, batching the RPCs per provider
// (one request per distinct provider). This is what a BlobSeer client
// library does when it writes the new subtree of a version. With
// replication each node fans out to every live ring member; a ring
// member that is down takes no copy — the writer records it as a void
// and pushes the missing copy to a live substitute instead (writing
// around the failure), so nodes are born at full degree whenever
// enough providers are up. A node with every provider down cannot be
// placed and is dropped (its later gets fail, and count as failed).
func (m *MetaService) PutBatch(ctx *cluster.Ctx, nodes []NewNode) {
	if len(nodes) == 0 {
		return
	}
	counts := make(map[cluster.NodeID]int64)
	var store []bool
	if m.replicas == 1 {
		// Legacy layout: one copy on the home provider, liveness
		// ignored (the fault-free control-plane assumption).
		for _, nn := range nodes {
			counts[m.Home(nn.Ref)]++
		}
	} else {
		type degradedPut struct {
			ref         NodeRef
			voids, subs []cluster.NodeID
		}
		var degraded []degradedPut
		store = make([]bool, len(nodes))
		for i, nn := range nodes {
			ring := m.Replicas(nn.Ref)
			var deadRing []cluster.NodeID
			stored := 0
			for _, prov := range ring {
				if !m.isAlive(prov) {
					deadRing = append(deadRing, prov)
					continue
				}
				counts[prov]++
				stored++
			}
			var subs []cluster.NodeID
			if len(deadRing) > 0 {
				subs = m.substitutes(nn.Ref, ring, len(deadRing))
				for _, s := range subs {
					counts[s]++
					stored++
				}
			}
			if stored == 0 {
				continue
			}
			store[i] = true
			if len(deadRing) > 0 {
				degraded = append(degraded, degradedPut{nn.Ref, deadRing, subs})
			}
		}
		if len(degraded) > 0 {
			m.repMu.Lock()
			for _, d := range degraded {
				m.voids[d.ref] = d.voids
				if len(d.subs) > 0 {
					m.repairs[d.ref] = d.subs
				}
			}
			m.repMu.Unlock()
		}
	}
	// Charge per-provider batches in deterministic (provider ring) order.
	for _, prov := range m.providers {
		if c := counts[prov]; c > 0 {
			ctx.RPC(prov, c*treeNodeWire, 16)
			m.Puts.Add(1)
		}
	}
	for i, nn := range nodes {
		if store != nil && !store[i] {
			continue
		}
		sh := m.shard(nn.Ref)
		sh.mu.Lock()
		sh.nodes[nn.Ref] = nn.Node
		sh.mu.Unlock()
	}
}

// RefWatermark returns the highest node reference allocated so far.
// Like ProviderSet.KeyWatermark, the garbage collector snapshots it
// before marking so nodes of in-flight versions are exempt from the
// sweep.
func (m *MetaService) RefWatermark() NodeRef {
	return NodeRef(m.nextRef.Load())
}

// AllocPendingRef returns a fresh globally unique node reference for
// a version being built (refs are client-generated in BlobSeer as
// well, so no RPC is charged): the ref is atomically registered as
// pending so a concurrent sweep will not reclaim the node before its
// version publishes. The writer must ClearPending after publication
// (or abort). See ProviderSet.AllocPendingKey for the
// snapshot-atomicity argument.
func (m *MetaService) AllocPendingRef() NodeRef {
	m.pendMu.Lock()
	ref := NodeRef(m.nextRef.Add(1))
	m.pending[ref] = true
	m.pendMu.Unlock()
	return ref
}

// ClearPending removes the in-flight mark from refs (idempotent).
func (m *MetaService) ClearPending(refs []NodeRef) {
	m.pendMu.Lock()
	for _, r := range refs {
		delete(m.pending, r)
	}
	m.pendMu.Unlock()
}

// PendingSnapshot atomically samples the ref watermark and the set of
// in-flight refs, taken at the start of a collection cycle.
func (m *MetaService) PendingSnapshot() (NodeRef, map[NodeRef]bool) {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	wm := NodeRef(m.nextRef.Load())
	pending := make(map[NodeRef]bool, len(m.pending))
	for r := range m.pending {
		pending[r] = true
	}
	return wm, pending
}

// Sweep deletes every stored node up to the watermark that is neither
// in the live set nor in the pending snapshot, and returns how many it
// removed, charging one batched RPC per affected home provider
// (immutable nodes need no further coordination to drop). The caller
// guarantees the live set covers every node reachable from a live
// snapshot root.
func (m *MetaService) Sweep(ctx *cluster.Ctx, upTo NodeRef, live, pending map[NodeRef]bool) int {
	counts := make(map[cluster.NodeID]int64)
	var dropped []NodeRef
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for ref := range sh.nodes {
			if ref <= upTo && !live[ref] && !pending[ref] {
				delete(sh.nodes, ref)
				counts[m.Home(ref)]++
				dropped = append(dropped, ref)
			}
		}
		sh.mu.Unlock()
	}
	// Swept refs no longer need their degraded-placement records.
	if len(dropped) > 0 {
		m.repMu.Lock()
		if len(m.voids) > 0 || len(m.repairs) > 0 {
			for _, ref := range dropped {
				delete(m.voids, ref)
				delete(m.repairs, ref)
			}
		}
		m.repMu.Unlock()
	}
	freed := 0
	for _, prov := range m.providers {
		if c := counts[prov]; c > 0 {
			ctx.RPC(prov, c*16, 16)
			freed += int(c)
		}
	}
	m.Freed.Add(int64(freed))
	return freed
}

// NodeCount returns the number of stored tree nodes (metadata footprint).
func (m *MetaService) NodeCount() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}

// peek returns a node without charging any cost; used by in-process
// verification and tests.
func (m *MetaService) peek(ref NodeRef) (TreeNode, bool) {
	sh := m.shard(ref)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n, ok := sh.nodes[ref]
	return n, ok
}
