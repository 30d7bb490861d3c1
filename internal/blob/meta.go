package blob

import (
	"fmt"
	"slices"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// MetaService is the distributed metadata store: immutable segment-tree
// nodes spread over a set of metadata provider nodes by reference hash,
// as in BlobSeer's metadata DHT. Nodes are immutable, so a reader may
// hold what it resolved (the mirror's chunk map); the service itself
// never invalidates.
//
// The nodes live in a table indexed by ref, under the embedded
// replicaSet's lock: refs are handed out by a counter
// (AllocPending), so they are dense, and node ref r sits at slot
// r%nodePage of page r/nodePage. A zero TreeNode is an absent ref.
// Pages rather than one slice, so that growing the table never copies
// it and a sweep can drop a page once its last node is gone: memory
// follows the live refs, not the watermark. Nodes are written once and
// read many times, so a batched read takes the shared side once per
// batch.
//
// At replication degree 1 (the default) every ref lives on exactly one
// home provider and the control plane is assumed fault-free — the
// pre-replication layout, kept byte-identical for every recorded
// scenario. SetReplication(r) switches each ref to an r-replica ring
// over the providers through the same placement core as the chunk
// plane (the embedded replicaSet, replicaset.go): writes fan out to
// every live ring member and write around dead ones onto substitutes,
// recording where the copies went off the ring; reads probe the nearest
// live replica first and fail over down the ring, and a liveness-driven
// repair sweep restores the degree after every transition. The off-ring
// records stay empty, and the sweep does nothing, at degree 1.
//
// The degree-1 arms of GetBatchInto and PutBatch are kept on a
// measurement, not for the recorded outputs: one path at every degree
// reproduces all of them and costs paper-deploy 8–17 % of its host time
// (the read serves ~1.8 M refs per rep there). The ROADMAP's standing
// rules record it: do not fold MetaService's degree-1 arm.
//
// A whole chunk map (Client.ChunkMap) is a host-side walk of the node
// table, shared by the descents of one root in flight together, and a
// replay per descent through GetBatchInto with a nil out (chunkMap).
type MetaService struct {
	replicaSet[NodeRef]
	// pages is the node table and stored the number of nodes in it,
	// both guarded by the replica set's mu. A nil page holds no node.
	pages  [][]TreeNode
	stored int
	// walks holds, under mu, the walk of every tree whose chunk map a
	// descent is replaying, by root.
	walks map[NodeRef]*leafWalk

	// Puts and Gets count service operations (after batching);
	// NodesServed counts individual tree nodes returned by GetBatchInto
	// (so Gets/NodesServed exposes the batching factor); Freed counts
	// tree nodes reclaimed by garbage-collection sweeps.
	Puts, Gets, NodesServed, Freed atomic.Int64
	// FailedGets counts gets that found no live copy (the failed
	// descents a metadata outage is judged by). It and the replica
	// set's Failovers and Rereplicated stay zero at degree 1.
	FailedGets atomic.Int64
	// Walks counts host-side chunk-map walks: one per tree per wave of
	// ChunkMap descents in flight together.
	Walks atomic.Int64
}

// nodePage is how many tree nodes one page of the node table holds.
const nodePage = 1024

// NewMetaService creates a metadata store over the given provider nodes.
func NewMetaService(providers []cluster.NodeID) *MetaService {
	if len(providers) == 0 {
		panic("blob: metadata service needs at least one provider")
	}
	m := &MetaService{walks: make(map[NodeRef]*leafWalk)}
	m.init(m, "meta-rereplicate", providers, 1, len(providers))
	return m
}

// SetReplication sets the metadata replication degree. Call before any
// traffic; degree 1 is the legacy single-home layout.
func (m *MetaService) SetReplication(r int) {
	if r < 1 || r > len(m.nodes) {
		panic("blob: metadata replication degree out of range")
	}
	m.setDegree(r)
}

// Home returns the metadata provider primarily responsible for a
// reference (the first ring member at any replication degree).
func (m *MetaService) Home(ref NodeRef) cluster.NodeID {
	return m.nodes[m.primarySlot(ref)]
}

// storedKeys, has, copyBytes and chargeCopy are the metadata tier's
// side of a repair sweep (replicaTier): every stored ref is a
// candidate, and since tree nodes live in provider memory a copy is one
// small RPC from the source — no disk legs, unlike chunk repair. The
// keys come in ref order.
func (m *MetaService) storedKeys() []NodeRef {
	keys := make([]NodeRef, 0, m.stored)
	for pi, page := range m.pages {
		for i, n := range page {
			if n.valid() {
				keys = append(keys, NodeRef(pi*nodePage+i))
			}
		}
	}
	return keys
}

// lookupLocked returns the node stored under ref; a ref past the table
// or in a dropped page reads as absent. The caller holds mu.
func (m *MetaService) lookupLocked(ref NodeRef) (TreeNode, bool) {
	if pi := ref / nodePage; pi < NodeRef(len(m.pages)) {
		if page := m.pages[pi]; page != nil {
			n := page[ref%nodePage]
			return n, n.valid()
		}
	}
	return TreeNode{}, false
}

func (m *MetaService) has(ref NodeRef) bool { _, ok := m.lookupLocked(ref); return ok }

func (m *MetaService) copyBytes(NodeRef) int32 { return TreeNodeWire }

func (m *MetaService) chargeCopy(cc *cluster.Ctx, src, _ cluster.NodeID, bytes int32) {
	cc.RPC(src, 16, int64(bytes))
}

// MissingNodesError reports how many refs of a batched metadata get
// could not be served — refs with no stored node and, with
// replication, refs whose every copy was down. It unwraps to a
// *NotFoundError for the first failing ref (and through it to
// ErrNotFound), so existing errors.Is and errors.As checks keep
// matching, and also to ErrNoReplica when an outage — not an absent
// node — cost the batch a ref.
type MissingNodesError struct {
	// Missing is the number of refs the batch could not serve.
	Missing int
	// First is the first failing ref, in batch order.
	First NodeRef

	noReplica bool // some ref had every copy down
}

// Error renders the count and the first failing ref.
func (e *MissingNodesError) Error() string {
	return fmt.Sprintf("blob: batched metadata get missing %d node(s), first ref %d: not found", e.Missing, e.First)
}

// Unwrap yields the first failing ref's *NotFoundError, and
// ErrNoReplica beside it when a ref was lost to dead replicas.
func (e *MissingNodesError) Unwrap() []error {
	errs := []error{&NotFoundError{Kind: "metadata node", What: e.First}}
	if e.noReplica {
		errs = append(errs, ErrNoReplica)
	}
	return errs
}

// GetBatchInto is the metadata read path, the only one: it fetches the
// tree nodes of refs into the caller's out (len(out) must be
// len(refs); tight descent loops reuse one buffer per level), grouping
// the refs by serving provider and charging one RPC per distinct
// provider — the read-side twin of PutBatch, and what turns a
// level-order tree descent into depth rounds instead of node-count
// round trips. At replication degree 1 the serving provider is always
// the home provider (the legacy fault-free layout, liveness ignored);
// otherwise each ref's nearest live replica serves and dead ones cost
// a probe. A ref that cannot be served fails the batch with a
// *MissingNodesError (the full round is still charged — the providers
// did the lookups).
//
// Partial-fill contract: on error every found ref is still filled in
// (its out entry is valid()); the missing ones stay the zero
// TreeNode, and the returned *MissingNodesError carries how many refs
// failed and the first failing ref. With replication a ref whose
// every copy is down also counts as missing (and as a failed get);
// the rest of the batch is still charged and filled.
//
// A nil out charges, picks, probes, counts and checks existence
// exactly as above, but copies nothing: a chunk-map replay already
// holds the nodes from its walk.
func (m *MetaService) GetBatchInto(ctx *cluster.Ctx, refs []NodeRef, out []TreeNode) error {
	if len(refs) == 0 {
		return nil
	}
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
		if len(m.nodes) > len(inline) {
			counts = make([]int64, len(m.nodes))
		}
		for _, ref := range refs {
			counts[m.primarySlot(ref)]++
		}
		// Charge per-provider batches in deterministic (provider ring) order.
		for pi, prov := range m.nodes {
			if c := counts[pi]; c > 0 {
				ctx.RPC(prov, c*16, c*TreeNodeWire)
				m.Gets.Add(1)
			}
		}
	} else {
		// Replicated layout: pick each ref's serving replica, then
		// charge per-provider batches. The refs of one level are
		// probed in parallel, so the batch waits once for the worst
		// ref's dead-holder probes rather than summing them. A ref
		// with no off-ring record is read from its primary slot's
		// shared ring, so its pick depends on the slot alone: each such
		// slot is picked once per batch (slots, on the stack for pools
		// of up to 128 providers) and its refs reuse the pick, while a
		// ref with a record picks from its own locations. Failovers and
		// failed gets still count per ref.
		var inline [128]slotPick
		slots := inline[:]
		if len(m.nodes) > len(inline) {
			slots = make([]slotPick, len(m.nodes))
		}
		counts := make(map[cluster.NodeID]int64, len(m.nodes))
		maxProbes := 0
		reader := ctx.Node()
		m.mu.RLock()
		for i, ref := range refs {
			var sp slotPick
			if locs, ok := m.off[ref]; ok {
				sp = m.pickFrom(reader, locs)
			} else if slot := m.primarySlot(ref); slots[slot].picked {
				sp = slots[slot]
				if sp.ok && sp.probes > 0 {
					m.Failovers.Add(1) // the pick counted the slot's first ref
				}
			} else {
				sp = m.pickFrom(reader, m.rings[slot])
				slots[slot] = sp
			}
			maxProbes = max(maxProbes, sp.probes)
			if !sp.ok {
				m.FailedGets.Add(1)
				if down == nil {
					down = make([]bool, len(refs))
				}
				down[i] = true
				continue
			}
			counts[sp.prov]++
		}
		m.mu.RUnlock()
		probeWait(ctx, maxProbes)
		for _, prov := range m.nodes {
			if c := counts[prov]; c > 0 {
				ctx.RPC(prov, c*16, c*TreeNodeWire)
				m.Gets.Add(1)
			}
		}
	}
	var missing *MissingNodesError
	served := int64(0)
	m.mu.RLock()
	for i, ref := range refs {
		if down != nil && down[i] {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			missing.noReplica = true
			continue
		}
		n, ok := m.lookupLocked(ref)
		if !ok {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			continue
		}
		if out != nil {
			out[i] = n
		}
		served++
	}
	m.mu.RUnlock()
	m.NodesServed.Add(served)
	if missing == nil {
		return nil
	}
	return missing
}

// leafWalk is one host-side walk of a chunk map: the refs of each
// level in the order the descent fetches them (level i is
// refs[ends[i-1]:ends[i]]), the leaves, and the error the walk stopped
// at. users counts the descents replaying it, under mu; the rest is
// read-only once the walk returns.
type leafWalk struct {
	refs   []NodeRef
	ends   []int
	leaves []LeafEntry
	err    error
	users  int
}

// chunkMap resolves the leaves [0,n) of the tree under root, which
// covers [0,span): Client.ChunkMap's descent. The tree is immutable,
// so the descents of one root in flight together share one walk: the
// first runs CollectLeaves over the node table under mu, charging
// nothing, and records each level's refs. Every descent then replays
// the levels through GetBatchInto with a nil out, so it charges,
// probes and counts what its own descent would have, and fails at the
// same level; a walk that found a corrupt node fails after its level.
//
// The record lives while a replay of it is in flight (kept longer, it
// holds one per root a reopen touches), and the last replay drops it.
// Every replay returns the walk's leaves: one map, shared read-only by
// the whole wave. A stored root is one blob's (builds and clones store
// fresh roots), so it fixes span and n; the empty tree, ref 0, has
// nothing to walk.
func (m *MetaService) chunkMap(ctx *cluster.Ctx, root NodeRef, span, n int64) ([]LeafEntry, error) {
	if root == 0 {
		return CollectLeaves(nil, 0, span, 0, n)
	}
	m.mu.Lock()
	w := m.walks[root]
	if w == nil {
		w = m.walkLocked(root, span, n)
		m.walks[root] = w
	}
	w.users++
	m.mu.Unlock()
	err := w.replay(ctx, m)
	m.mu.Lock()
	if w.users--; w.users == 0 {
		delete(m.walks, root)
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w.leaves, nil
}

// walkLocked walks the chunk map of root's tree over the node table.
// The record is sized once from the range: level k of a full tree
// holds ceil(n/w) nodes of width w = span>>k. The caller holds mu.
func (m *MetaService) walkLocked(root NodeRef, span, n int64) *leafWalk {
	m.Walks.Add(1)
	var refs int64
	levels := 0
	for wd := span; wd >= 1; wd /= 2 {
		refs += (n + wd - 1) / wd
		levels++
	}
	w := &leafWalk{refs: make([]NodeRef, 0, refs), ends: make([]int, 0, levels)}
	w.leaves, w.err = CollectLeaves(walkGetter{m, w}, root, span, 0, n)
	return w
}

// replay charges the walk's levels in order, as the descent that
// fetched them would have, and returns the first error: a level's own,
// or else the walk's.
func (w *leafWalk) replay(ctx *cluster.Ctx, m *MetaService) error {
	lo := 0
	for _, hi := range w.ends {
		if err := m.GetBatchInto(ctx, w.refs[lo:hi], nil); err != nil {
			return err
		}
		lo = hi
	}
	return w.err
}

// walkGetter is a walk's Getter: it records each level's refs and
// resolves them from the node table, charging nothing. Its caller
// holds mu. An absent ref stops the walk; the replay of that level
// fails with GetBatchInto's own error before the walk's is returned.
type walkGetter struct {
	m *MetaService
	w *leafWalk
}

func (g walkGetter) GetNodes(refs []NodeRef, out []TreeNode) error {
	g.w.refs = append(g.w.refs, refs...)
	g.w.ends = append(g.w.ends, len(g.w.refs))
	for i, ref := range refs {
		n, ok := g.m.lookupLocked(ref)
		if !ok {
			return &NotFoundError{Kind: "metadata node", What: ref}
		}
		out[i] = n
	}
	return nil
}

// slotPick is one replica pick of a replicated metadata read.
type slotPick struct {
	prov       cluster.NodeID
	probes     int
	ok, picked bool
}

// pickFrom is pick with its outcome as a slotPick.
func (m *MetaService) pickFrom(reader cluster.NodeID, locs []cluster.NodeID) slotPick {
	prov, probes, ok := m.pick(reader, locs)
	return slotPick{prov, probes, ok, true}
}

// PutBatch stores freshly built nodes, batching the RPCs per provider
// (one request per distinct provider). This is what a BlobSeer client
// library does when it writes the new subtree of a version. With
// replication each node fans out to every live ring member; a ring
// member that is down takes no copy — the writer pushes the missing
// copy to a live substitute instead (writing around the failure) and
// records the ref's holders as its off-ring record, so nodes are born
// at full degree whenever enough providers are up. A node with every
// provider down cannot be placed and is dropped (its later gets fail,
// and count as failed). Refs are AllocPending's: the node table grows
// to the largest one.
func (m *MetaService) PutBatch(ctx *cluster.Ctx, nodes []NewNode) {
	if len(nodes) == 0 {
		return
	}
	counts := make(map[cluster.NodeID]int64)
	var store []bool
	type offPut struct {
		ref  NodeRef
		locs []cluster.NodeID
	}
	var offs []offPut
	if m.replicas == 1 {
		// Legacy layout: one copy on the home provider, liveness
		// ignored (the fault-free control-plane assumption).
		for _, nn := range nodes {
			counts[m.Home(nn.Ref)]++
		}
	} else {
		store = make([]bool, len(nodes))
		for i, nn := range nodes {
			locs, off := m.place(nn.Ref)
			for _, prov := range locs {
				counts[prov]++
			}
			store[i] = len(locs) > 0
			if off && store[i] {
				offs = append(offs, offPut{nn.Ref, locs})
			}
		}
	}
	// Charge per-provider batches in deterministic (provider ring) order.
	for _, prov := range m.nodes {
		if c := counts[prov]; c > 0 {
			ctx.RPC(prov, c*TreeNodeWire, 16)
			m.Puts.Add(1)
		}
	}
	m.mu.Lock()
	for _, o := range offs {
		m.off[o.ref] = o.locs
	}
	for i, nn := range nodes {
		if store != nil && !store[i] {
			continue
		}
		pi := int(nn.Ref / nodePage)
		if pi >= len(m.pages) {
			m.pages = append(m.pages, make([][]TreeNode, pi+1-len(m.pages))...)
		}
		if m.pages[pi] == nil {
			m.pages[pi] = make([]TreeNode, nodePage)
		}
		slot := &m.pages[pi][nn.Ref%nodePage]
		if !slot.valid() {
			m.stored++
		}
		*slot = nn.Node
	}
	m.mu.Unlock()
}

// Sweep deletes every stored node up to the watermark that is neither
// in the live set nor in the pending snapshot, and returns how many it
// removed, charging one batched RPC per affected home provider
// (immutable nodes need no further coordination to drop). A page left
// with no node is dropped. The caller guarantees the live set covers
// every node reachable from a live snapshot root.
func (m *MetaService) Sweep(ctx *cluster.Ctx, upTo NodeRef, live map[NodeRef]bool, pending PendingSet[NodeRef]) int {
	counts := make(map[cluster.NodeID]int64)
	m.mu.Lock()
	for pi, page := range m.pages {
		if NodeRef(pi*nodePage) > upTo {
			break
		}
		for i := range page {
			ref := NodeRef(pi*nodePage + i)
			if !page[i].valid() || ref > upTo || live[ref] || pending.Has(ref) {
				continue
			}
			page[i] = TreeNode{}
			m.stored--
			counts[m.Home(ref)]++
			delete(m.off, ref)
		}
		if !slices.ContainsFunc(page, TreeNode.valid) {
			m.pages[pi] = nil
		}
	}
	m.mu.Unlock()
	freed := 0
	for _, prov := range m.nodes {
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
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stored
}

// peek returns a node without charging any cost; used by in-process
// verification and tests.
func (m *MetaService) peek(ref NodeRef) (TreeNode, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lookupLocked(ref)
}

// LiveLocations returns the live providers currently holding a copy of
// ref, in failover order, without charging any cost — the inspection
// hook the chaos tests assert replication invariants with. A ref with
// no stored node returns nil.
func (m *MetaService) LiveLocations(ref NodeRef) []cluster.NodeID {
	if _, ok := m.peek(ref); !ok {
		return nil
	}
	return m.liveOf(m.locations(ref))
}

// Getter binds the service to an activity as the Getter of the
// segment-tree algorithms: every GetNodes round is one GetBatchInto.
// It is the one metadata read path: the client's descents, the
// collector's mark phase and sync's export all read through it.
func (m *MetaService) Getter(ctx *cluster.Ctx) Getter { return serviceGetter{m, ctx} }

type serviceGetter struct {
	m   *MetaService
	ctx *cluster.Ctx
}

func (g serviceGetter) GetNodes(refs []NodeRef, out []TreeNode) error {
	return g.m.GetBatchInto(g.ctx, refs, out)
}
