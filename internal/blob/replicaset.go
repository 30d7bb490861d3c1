package blob

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// replicaSet is the placement core the chunk tier (ProviderSet, chunk
// payloads keyed by ChunkKey) and the metadata tier (MetaService, tree
// nodes keyed by NodeRef) share: the paper stores both halves of an
// image the same way — striped over a node list and replicated
// (§3.1.2–3.1.3) — so one type owns the record table (keyTable), the
// striping (primarySlot), key allocation with the pending ranges a
// collection spares (AllocPending), the rings, the record of where a
// key's copies are once they left its ring, failover reads, the
// repair sweep that follows every liveness transition
// (cluster/faults.go), and a collection's sweep. A tier embeds it and
// adds what differs: how wide a stripe is and how one copy is sized and
// charged (replicaTier).
type replicaSet[K ~uint64, V any] struct {
	nodes    []cluster.NodeID
	replicas int
	// window is how many nodes one stripe block covers (primarySlot):
	// len(nodes) is plain round-robin.
	window int
	// topo, when enabled, makes placement and reads locality-aware:
	// rings spread a key's copies across failure domains (zones first,
	// then racks) and pick probes the reader's nearest live copy first.
	// The zero topology is the flat ring.
	topo cluster.Topology
	// rings[s] is the replica ring of primary slot s (replicaRings).
	rings [][]cluster.NodeID
	// lv is the cluster's liveness registry, the one record of which
	// nodes are up: a dead node serves no read and takes no copy. Nil
	// (no fault injection) has every node up.
	lv   *cluster.Liveness
	tier replicaTier[V]
	// sweepName names the puller activities of a repair sweep.
	sweepName string

	// mu guards recs, off and the pending ranges, so that one shared
	// acquisition covers a key's lookup and its location list. Reads
	// take the shared side: a chunk fetch once per chunk, a metadata
	// get once per batch.
	//
	// recs is the one record of what the tier stores: a chunk's payload
	// or a tree node, by key.
	//
	// off holds, for a key whose copies left its ring, the nodes that
	// hold one, in read order: the ring members that stored it and the
	// substitutes of a degraded put (place), then each copy a repair
	// sweep landed. A key without an entry is held by its ring. A ring
	// member down at put time is not listed, so it serves nothing even
	// after a revival until a sweep backfills it; a sweep's copy is
	// listed only once its bytes have landed.
	//
	// next is the key watermark, the last key AllocPending handed out,
	// and pending holds the key range of every write in flight, one
	// range per AllocPending call, in allocation (so key) order.
	mu      sync.RWMutex
	recs    keyTable[K, V]
	off     map[K][]cluster.NodeID
	next    uint64
	pending []keyRange[K]

	// Failovers counts reads a dead first choice pushed onto a
	// surviving copy; Rereplicated counts the copies repair sweeps
	// landed as locations. Freed and FreedBytes count the records
	// collections swept (Sweep) and the bytes of one copy of each.
	Failovers, Rereplicated atomic.Int64
	Freed, FreedBytes       atomic.Int64
}

// replicaTier is what a tier tells the core about a copy of one of its
// records.
type replicaTier[V any] interface {
	// copyBytes is the size of one copy of a stored record, called
	// under the lock acquisition that listed it.
	copyBytes(rec V) int32
	// chargeCopy costs pulling one copy of that size from src onto dst.
	chargeCopy(cc *cluster.Ctx, src, dst cluster.NodeID, bytes int32)
}

// init sets the core up for a tier; sweepName names the puller
// activities of its repair sweeps and window is the stripe width.
func (rs *replicaSet[K, V]) init(tier replicaTier[V], sweepName string, nodes []cluster.NodeID, replicas, window int) {
	rs.tier, rs.sweepName = tier, sweepName
	rs.nodes, rs.window = nodes, window
	rs.replicas = replicas
	rs.rings = replicaRings(nodes, replicas, rs.topo)
	rs.off = make(map[K][]cluster.NodeID)
}

// SetLiveness attaches the cluster liveness registry (see the lv field).
// Call it before any traffic, and wire NodeChanged as its OnChange
// listener so that a transition is followed by a repair sweep.
func (rs *replicaSet[K, V]) SetLiveness(lv *cluster.Liveness) { rs.lv = lv }

// SetTopology makes placement and reads locality-aware (see the topo
// field). Call it right after construction, before any traffic:
// placement must not change under stored keys, or their ring walks
// would resolve to different replicas than the ones holding the data.
func (rs *replicaSet[K, V]) SetTopology(t cluster.Topology) {
	rs.topo = t
	rs.rings = replicaRings(rs.nodes, rs.replicas, t)
}

// primarySlot returns the index into rs.nodes of a key's primary
// replica — the single place the placement hash lives; every ring walk
// starts here. Placement is block-cyclic: a block of window·stripeRounds
// consecutive keys goes stripeRounds times round-robin over a window of
// nodes, and the next block over the next window. Adjacent keys never
// share a node, any window-many consecutive keys meet that many disks,
// and a writer whose keys fill a block leaves stripeRounds of them on
// each of window nodes — one seek apiece (PutBatch) — instead of one
// key on each of window·stripeRounds nodes. A window as wide as the
// node list is the plain key mod n of §3.1.3.
func (rs *replicaSet[K, V]) primarySlot(key K) int {
	k, n, w := uint64(key), uint64(len(rs.nodes)), uint64(rs.window)
	if w < n {
		k = k/(w*stripeRounds)*w + k%w
	}
	return int(k % n)
}

// Replicas returns the nodes responsible for a key, primary first: the
// precomputed ring of the key's primary slot (see replicaRings for the
// walk). The slice is shared by every key of that slot; callers must
// not modify it.
func (rs *replicaSet[K, V]) Replicas(key K) []cluster.NodeID {
	return rs.rings[rs.primarySlot(key)]
}

// AllocPending returns the first of n fresh consecutive keys for a
// write in flight: a commit's chunks, or the tree nodes it builds.
// Consecutive keys stripe the write evenly over the nodes
// (primarySlot), and on a pool wider than the stripe window a write
// that fits a stripe block but not what is left of the current one
// starts at the next block boundary, so that it lands on one window of
// nodes, stripeRounds keys each, and not on the tails of two; the keys
// skipped are never stored. (On a pool of one window — the metadata
// tier's is the whole pool — every block starts at slot 0, aligning
// would only load the low slots, and keys stay back to back.) The keys
// are registered as one pending range, so a garbage-collection sweep
// that starts before the write publishes will not reclaim them even
// though no published tree references them yet. The writer of n ≥ 1
// keys must ClearPending(first) once the version is published (or the
// write aborted); a write of no keys registers nothing and clears
// nothing. Allocation and registration happen under one lock, so the
// collector's snapshot (PendingSnapshot) can never observe a key
// allocated but untracked.
func (rs *replicaSet[K, V]) AllocPending(n int) K {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	next := rs.next + 1
	if block := uint64(rs.window * stripeRounds); rs.window < len(rs.nodes) && uint64(n) <= block {
		if left := block - next%block; uint64(n) > left {
			next += left
		}
	}
	rs.next = next + uint64(n) - 1
	if n > 0 {
		rs.pending = append(rs.pending, keyRange[K]{K(next), K(rs.next + 1)})
	}
	return K(next)
}

// ClearPending removes the in-flight mark from the write whose keys
// start at first (idempotent; 0, never a key, clears nothing). Its keys
// become ordinary sweep candidates: reachable from the version just
// published, or garbage of an aborted write for the next cycle.
func (rs *replicaSet[K, V]) ClearPending(first K) {
	rs.mu.Lock()
	if i, ok := slices.BinarySearchFunc(rs.pending, first, func(r keyRange[K], k K) int { return cmp.Compare(r.first, k) }); ok {
		rs.pending = slices.Delete(rs.pending, i, i+1)
	}
	rs.mu.Unlock()
}

// PendingSnapshot atomically samples the key watermark and the keys of
// the writes in flight. Taken at the start of a collection cycle, it
// makes the exemption airtight: a key at or below the watermark was
// either pending at the snapshot (exempt) or its write had already
// published (so the mark phase reaches it through the version's root).
func (rs *replicaSet[K, V]) PendingSnapshot() (K, PendingSet[K]) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return K(rs.next), PendingSet[K]{slices.Clone(rs.pending)}
}

// keyRange is the keys [first, end) of one write in flight.
type keyRange[K ~uint64] struct{ first, end K }

// PendingSet is the keys of the writes in flight at a PendingSnapshot:
// one disjoint range per write, sorted by key, so a collection asks
// about a key with a binary search over the writes, not a hash over
// their keys.
type PendingSet[K ~uint64] struct{ ranges []keyRange[K] }

// Has reports whether key k is pending: whether the first range ending
// past k starts at or before it.
func (p PendingSet[K]) Has(k K) bool {
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].end > k })
	return i < len(p.ranges) && p.ranges[i].first <= k
}

// Len returns the number of pending keys.
func (p PendingSet[K]) Len() int {
	n := 0
	for _, r := range p.ranges {
		n += int(r.end - r.first)
	}
	return n
}

// NodeChanged is the cluster liveness hook: wire it with
// Liveness.OnChange. It runs a repair sweep — after a death the keys the
// node held are under-replicated, and after a revival the returned
// capacity can host copies that could not be placed while too few nodes
// were up. The listener returns once the sweep's copies have landed,
// each listed as a location as it lands. Nodes outside the set are
// ignored.
func (rs *replicaSet[K, V]) NodeChanged(ctx *cluster.Ctx, node cluster.NodeID, _ bool) {
	if slices.Contains(rs.nodes, node) {
		rs.ReReplicate(ctx)
	}
}

// locationsLocked returns the nodes holding key's copies in failover
// order: its off-ring record if it has one, else its ring. Either is a
// shared slice, returned without allocating; callers must not modify
// it. The caller holds rs.mu (either side).
func (rs *replicaSet[K, V]) locationsLocked(key K) []cluster.NodeID {
	if locs, ok := rs.off[key]; ok {
		return locs
	}
	return rs.Replicas(key)
}

// Peek returns the record stored under key without charging any cost:
// the p2p sharing layer serves a chunk from a peer's mirror with the
// payload's bytes, and verification reads tree nodes with it.
func (rs *replicaSet[K, V]) Peek(key K) (V, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.recs.get(key)
}

// LiveLocations returns the live nodes currently holding a copy of key
// — the live members of its ring or of its off-ring record — in
// failover order, without charging any cost: the inspection hook the
// chaos tests assert replication invariants with. A key with no stored
// record returns nil.
func (rs *replicaSet[K, V]) LiveLocations(key K) []cluster.NodeID {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if !rs.recs.has(key) {
		return nil
	}
	return slices.DeleteFunc(slices.Clone(rs.locationsLocked(key)), func(n cluster.NodeID) bool { return !rs.lv.Alive(n) })
}

// count returns the number of stored records.
func (rs *replicaSet[K, V]) count() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.recs.n
}

// RetainedKeys returns every stored key up to the watermark, in key
// order, without charging any cost: the inspection hook tests compare
// a collection's survivors with. Keys absent from it were never stored
// or already deleted.
func (rs *replicaSet[K, V]) RetainedKeys(upTo K) []K {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]K, 0, rs.recs.n)
	rs.recs.all(func(key K, _ V) bool {
		if key > upTo {
			return false
		}
		out = append(out, key)
		return true
	})
	return out
}

// Sweep is a collection's deletion, the one of both tiers: it drops
// every stored record up to the watermark that is neither live nor
// pending, with its off-ring record, and returns the freed keys in key
// order and the bytes of one copy of each (copyBytes), also added to
// Freed and FreedBytes. Each node that held a copy of a freed key (its
// locationsLocked) is charged, if up, one batched RPC of reqBytes per
// key, in node order: records are immutable, so a deletion is a
// metadata operation at each holder. The caller guarantees live covers
// every key reachable from a live snapshot root.
func (rs *replicaSet[K, V]) Sweep(ctx *cluster.Ctx, upTo K, live map[K]bool, pending PendingSet[K], reqBytes int64) (freed []K, bytes int64) {
	perNode := make(map[cluster.NodeID]int64)
	rs.mu.Lock()
	rs.recs.all(func(key K, rec V) bool {
		if key > upTo {
			return false
		}
		if live[key] || pending.Has(key) {
			return true
		}
		for _, n := range rs.locationsLocked(key) {
			perNode[n]++
		}
		if freed == nil { // live keys are stored: room for every dead one
			freed = make([]K, 0, max(rs.recs.n-len(live), 1))
		}
		delete(rs.off, key)
		rs.recs.del(key)
		freed = append(freed, key)
		bytes += int64(rs.tier.copyBytes(rec))
		return true
	})
	rs.mu.Unlock()
	for _, n := range rs.nodes {
		if c := perNode[n]; c > 0 && rs.lv.Alive(n) {
			ctx.RPC(n, c*reqBytes, 16)
		}
	}
	rs.Freed.Add(int64(len(freed)))
	rs.FreedBytes.Add(bytes)
	return freed, bytes
}

// pick chooses the copy that serves reader from a location list in
// failover order: nearest first when a topology is set, skipping dead
// holders. Each dead holder probed costs the reader a timed-out
// request (probes; see probeWait), and a read that got past one counts
// as a failover. ok is false when every copy is down.
func (rs *replicaSet[K, V]) pick(reader cluster.NodeID, locs []cluster.NodeID) (prov cluster.NodeID, probes int, ok bool) {
	for _, r := range nearestFirst(rs.topo, reader, locs) {
		if rs.lv.Alive(r) {
			if probes > 0 {
				rs.Failovers.Add(1)
			}
			return r, probes, true
		}
		probes++
	}
	return -1, probes, false
}

// probeWait charges the reader for the dead copies it probed: one
// timed-out request each before it moved to the next candidate.
func probeWait(ctx *cluster.Ctx, probes int) {
	if probes > 0 {
		cfg := ctx.Fabric().Config()
		ctx.Sleep(float64(probes) * (cfg.RTT + cfg.ReqOverhead))
	}
}

// place decides where the copies of a key being written go: the live
// members of its ring and, writing around the failure, one live
// substitute outside the ring per dead member — fewer when not enough
// nodes are up. off reports that a ring member was dead, so locs is the
// key's off-ring record. With the whole ring up, locs is the shared ring
// and nothing is allocated.
func (rs *replicaSet[K, V]) place(key K) (locs []cluster.NodeID, off bool) {
	ring := rs.Replicas(key)
	for i, n := range ring {
		switch {
		case !rs.lv.Alive(n):
			if !off {
				locs, off = append(make([]cluster.NodeID, 0, len(ring)), ring[:i]...), true
			}
		case off:
			locs = append(locs, n)
		}
	}
	if !off {
		return ring, false
	}
	// Substitutes walk the node list from the key's primary slot
	// (deterministic).
	first := rs.primarySlot(key)
	for i := 0; i < len(rs.nodes) && len(locs) < len(ring); i++ {
		cand := rs.nodes[(first+i)%len(rs.nodes)]
		if rs.lv.Alive(cand) && !slices.Contains(ring, cand) {
			locs = append(locs, cand)
		}
	}
	return locs, true
}

// repairJob is one copy a sweep makes: bytes of key pulled from src.
type repairJob[K ~uint64] struct {
	key   K
	src   cluster.NodeID
	bytes int32
}

// ReReplicate restores the replication degree of every stored key that
// lost copies: walking the keys in key order, a key with at least
// one live copy but fewer than the degree gains copies on live nodes
// not already holding it, walking the node list from its primary slot,
// until the degree is restored or no eligible node remains. A key
// whose last copy is gone cannot be repaired and is skipped. The plan
// is made under the shared lock and writes nothing; the copies are then
// charged, one puller activity per destination in node order, each
// pulling its keys from the first copy that was live at plan time.
// After each copy the puller appends itself to the key's off-ring
// record, but only if the source is still up and the key still stored:
// a copy whose source died under it is no location, and the sweep the
// death triggered (or a later one) plans it again. Appending is
// idempotent, so overlapping sweeps cost a duplicate transfer, never a
// duplicate location. Key order and node order make the sweep
// deterministic. Returns how many copies
// became locations (also added to Rereplicated).
//
// At degree 1 there is nothing to do — a key has either no live copy
// or its full set — and the sweep returns before listing any key.
func (rs *replicaSet[K, V]) ReReplicate(ctx *cluster.Ctx) int {
	if rs.replicas == 1 {
		return 0
	}
	rs.mu.RLock()
	perDst := make(map[cluster.NodeID][]repairJob[K])
	n := len(rs.nodes)
	rs.recs.all(func(key K, rec V) bool {
		locs := rs.locationsLocked(key)
		live, src := 0, cluster.NodeID(-1)
		for _, l := range locs {
			if rs.lv.Alive(l) {
				if live == 0 {
					src = l
				}
				live++
			}
		}
		if live == 0 || live >= rs.replicas {
			return true
		}
		job := repairJob[K]{key: key, src: src, bytes: rs.tier.copyBytes(rec)}
		first := rs.primarySlot(key)
		for i := 0; i < n && live < rs.replicas; i++ {
			if cand := rs.nodes[(first+i)%n]; rs.lv.Alive(cand) && !slices.Contains(locs, cand) {
				perDst[cand] = append(perDst[cand], job)
				live++
			}
		}
		return true
	})
	rs.mu.RUnlock()
	if len(perDst) == 0 {
		return 0
	}

	created := 0
	tasks := make([]cluster.Task, 0, len(perDst))
	for _, dst := range rs.nodes {
		jobs := perDst[dst]
		if len(jobs) == 0 {
			continue
		}
		tasks = append(tasks, ctx.Go(rs.sweepName, dst, func(cc *cluster.Ctx) {
			for _, j := range jobs {
				rs.tier.chargeCopy(cc, j.src, dst, j.bytes)
				rs.mu.Lock()
				if locs := rs.locationsLocked(j.key); rs.lv.Alive(j.src) && rs.recs.has(j.key) && !slices.Contains(locs, dst) {
					rs.off[j.key] = append(slices.Clip(locs), dst)
					rs.Rereplicated.Add(1)
					created++
				}
				rs.mu.Unlock()
			}
		}))
	}
	ctx.WaitAll(tasks)
	return created
}

// check reports the first broken invariant of the core's records, or
// nil. Call it at a quiescent point: no write or sweep in flight.
//   - every off-ring record is a stored key's;
//   - no location list (ring or off-ring record) names a node twice or
//     a node outside the set;
//   - the pending ranges are non-empty, sorted, disjoint and at or below
//     the watermark;
//   - the table's count is its present slots, and it keeps no empty
//     page.
func (rs *replicaSet[K, V]) check() error {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	lists := slices.Clone(rs.rings)
	for key, locs := range rs.off {
		if !rs.recs.has(key) {
			return fmt.Errorf("off-ring record of key %d, which is not stored", key)
		}
		lists = append(lists, locs)
	}
	for _, locs := range lists {
		for i, n := range locs {
			if slices.Contains(locs[:i], n) || !slices.Contains(rs.nodes, n) {
				return fmt.Errorf("location list %v names node %d twice or outside the set", locs, n)
			}
		}
	}
	for i, r := range rs.pending {
		if r.first >= r.end || uint64(r.end-1) > rs.next || i > 0 && rs.pending[i-1].end > r.first {
			return fmt.Errorf("pending range [%d,%d) empty, past watermark %d or out of order", r.first, r.end, rs.next)
		}
	}
	n := 0
	rs.recs.all(func(K, V) bool { n++; return true })
	empty := func(p *keyPage[V]) bool { return p != nil && p.present == [pageKeys / 64]uint64{} }
	if n != rs.recs.n || slices.ContainsFunc(rs.recs.pages, empty) {
		return fmt.Errorf("table counts %d records and holds %d, or keeps a page with none", rs.recs.n, n)
	}
	return nil
}

// pageKeys is how many keys one page of a keyTable covers.
const pageKeys = 1024

// keyTable is a tier's record of what it stores, one record per key.
// Keys come from AllocPending's counter, so they are dense, and key k
// sits at slot k%pageKeys of page k/pageKeys. Pages rather than one
// slice, so that growing the table never copies it and a page whose
// last record goes is dropped: memory follows the stored keys, not the
// watermark. Each page marks its stored slots in a bitmap, since a
// value cannot say it is absent: a zero-byte chunk is a record.
type keyTable[K ~uint64, V any] struct {
	pages []*keyPage[V] // nil: a page with no record
	n     int           // stored records
}

type keyPage[V any] struct {
	present [pageKeys / 64]uint64
	recs    [pageKeys]V
}

// has reports whether key k has a record.
func (t *keyTable[K, V]) has(k K) bool { _, ok := t.get(k); return ok }

// get returns key k's record; a key past the table or in a dropped
// page has none.
func (t *keyTable[K, V]) get(k K) (V, bool) {
	if pi := uint64(k / pageKeys); pi < uint64(len(t.pages)) {
		if p, i := t.pages[pi], k%pageKeys; p != nil && p.present[i/64]&(1<<(i%64)) != 0 {
			return p.recs[i], true
		}
	}
	var none V
	return none, false
}

// put stores v as key k's record, growing the table to k's page.
func (t *keyTable[K, V]) put(k K, v V) {
	pi, i := int(k/pageKeys), k%pageKeys
	if pi >= len(t.pages) {
		t.pages = append(t.pages, make([]*keyPage[V], pi+1-len(t.pages))...)
	}
	p := t.pages[pi]
	if p == nil {
		p = new(keyPage[V])
		t.pages[pi] = p
	}
	if bit := uint64(1) << (i % 64); p.present[i/64]&bit == 0 {
		p.present[i/64] |= bit
		t.n++
	}
	p.recs[i] = v
}

// del removes key k's record and returns it; a page left with no
// record is dropped.
func (t *keyTable[K, V]) del(k K) (V, bool) {
	v, ok := t.get(k)
	if ok {
		p, i := t.pages[k/pageKeys], k%pageKeys
		p.present[i/64] &^= 1 << (i % 64)
		p.recs[i] = *new(V)
		t.n--
		if p.present == [pageKeys / 64]uint64{} {
			t.pages[k/pageKeys] = nil
		}
	}
	return v, ok
}

// all calls yield on every record in key order, until yield returns
// false. yield may delete the key it is given, and no other. Library
// code calls it rather than ranging over it: a range-over-func loop
// links runtime.panicrangestate, which shifts the code laid out after
// it (math/rand's among it).
func (t *keyTable[K, V]) all(yield func(K, V) bool) {
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for w, word := range p.present {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if !yield(K(pi*pageKeys+i), p.recs[i]) {
					return
				}
			}
		}
	}
}
