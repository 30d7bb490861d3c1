package p2p

import (
	"cmp"
	"slices"
	"sync"

	"blobvfs/internal/blob"
	"blobvfs/internal/broadcast"
	"blobvfs/internal/cluster"
)

// Config carries the sharing layer's protocol constants.
type Config struct {
	// AnnounceBytes is the wire size of one chunk-location record.
	AnnounceBytes int64
}

// DefaultConfig returns the calibrated protocol constants.
func DefaultConfig() Config { return Config{AnnounceBytes: 24} }

// fanOut is how many copies of one chunk one member passes on, children
// released by its fetch's Landed(ok), who read the payload in hand, and
// late children, served as a published holder, counted together. Only a
// late child costs the uploader a seek and a chunk of disk time:
//
//	completion ≈ chunks × (1 + late) × upload cost + log_fanOut(n) × hop,
//
// late ≤ fanOut per chunk, made only while no fetch in flight at the
// holder's tier has a copy left. The first term dwarfs the second for any
// image of more than a handful of chunks, so the smallest fan-out that
// makes a tree wins: 1 is a chain as deep as the crowd, 3 costs more disk
// per member (docs/p2p.md, "The distribution tree", has them measured).
const fanOut = 2

// Stats aggregates a cohort's protocol counters.
type Stats struct {
	Announced   int64 // chunk locations accepted by the tracker
	Duplicates  int64 // announcements dropped by (member, chunk) dedup
	Retracted   int64 // locations withdrawn (local copy diverged)
	Reclaimed   int64 // locations dropped because GC freed the chunk
	DeadDropped int64 // locations dropped because their holder died
	PeerHits    int64 // Locate calls answered with a peer
	Misses      int64 // fell back to providers: no sibling holds or fetches it
	Saturated   int64 // fell back: every copy of the chunk is spoken for
	// DigestHits and DigestPushes always read 0; the fields stay because
	// the repo's benchmark (bench/simrun.go) reads them.
	DigestHits, DigestPushes int64

	// TierHits breaks PeerHits down by the locality tier between the
	// requester and the chosen uploader (indexed by cluster.Tier).
	// Without a topology every hit lands in cluster.TierRack.
	TierHits [cluster.NumTiers]int64
}

// Registry is the tracker-side sharing state: one Cohort per image.
type Registry struct {
	tracker cluster.NodeID
	cfg     Config
	// lv is the cluster liveness registry: Locate never returns a
	// holder it reports dead, and announcements from dead members are
	// ignored. Nil (no fault injection) has every node up. Wire
	// NodeChanged as its OnChange listener so a death also drops the
	// member's location records.
	lv *cluster.Liveness
	// topo, when enabled, makes Locate's pick locality-first: the copies
	// given only break ties within a tier. Under the zero topology
	// everybody is one tier.
	topo cluster.Topology

	// mu is an RWMutex: cohort lookup sits on every module's fetch
	// path, while registration and reclamation are rare, so readers
	// share the lock.
	mu      sync.RWMutex
	cohorts map[blob.ID]*Cohort
}

// SetLiveness attaches the cluster liveness registry (see Registry.lv).
// Call it before any cohort traffic.
func (r *Registry) SetLiveness(lv *cluster.Liveness) { r.lv = lv }

// SetTopology attaches the cluster topology (see Registry.topo). Call
// it before any cohort traffic.
func (r *Registry) SetTopology(t cluster.Topology) { r.topo = t }

// NodeChanged is the cluster liveness hook: wire it with
// Liveness.OnChange. A death drops the member from every cohort
// (dropDeadMember) — the tracker must never steer a reader to a dead
// uploader, nor leave one waiting on it. The drop is tracker-local:
// members keep no location state, so there is nobody to inform. A revival
// needs no tracker action: the records are already gone, and the peer
// re-announces whatever it still mirrors on its next fetches.
func (r *Registry) NodeChanged(ctx *cluster.Ctx, node cluster.NodeID, alive bool) {
	if alive {
		return
	}
	r.eachCohort(func(co *Cohort) { co.dropDeadMember(ctx, node) })
}

// eachCohort runs fn on every cohort in image order: fn may wake
// waiters, and the order of wake-ups is observable in the simulation
// (the determinism convention).
func (r *Registry) eachCohort(fn func(*Cohort)) {
	r.mu.RLock()
	cohorts := make([]*Cohort, 0, len(r.cohorts))
	for _, co := range r.cohorts {
		cohorts = append(cohorts, co)
	}
	r.mu.RUnlock()
	slices.SortFunc(cohorts, func(a, b *Cohort) int { return cmp.Compare(a.image, b.image) })
	for _, co := range cohorts {
		fn(co)
	}
}

// dropDeadMember settles node's fetches in flight as failed, in the order
// they went on record (wake-ups are observable, see eachCohort), and
// withdraws every location record it holds in the cohort, published or
// still reserved by an announce in flight, with the copies it gave.
func (co *Cohort) dropDeadMember(ctx *cluster.Ctx, node cluster.NodeID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.members[node] {
		return
	}
	for fetching := &co.fetching[node]; len(*fetching) > 0; {
		r := (*fetching)[0]
		co.settleLocked(ctx, r.key, co.chunks[r.key], r.at, false)
	}
	for _, ck := range co.chunks {
		if ck.held[node] {
			delete(ck.held, node)
			ck.removeHolder(node)
			co.stats.DeadDropped++
		}
		ck.given[node] = 0
	}
}

// NewRegistry creates a registry hosted on the tracker node.
func NewRegistry(tracker cluster.NodeID, cfg Config) *Registry {
	return &Registry{tracker: tracker, cfg: cfg, cohorts: make(map[blob.ID]*Cohort)}
}

// Register creates (or extends) the cohort for an image and
// disseminates the membership to all members along the broadcast tree.
// It is how the middleware's orchestrator enrolls a deployment: every
// node about to provision the image becomes a potential chunk source
// for its siblings. Register is idempotent per member. Membership is
// established at the tracker synchronously (Register is the tracker
// operation); the broadcast charges the cost of informing the members,
// and callers must not let members use the cohort before Register
// returns — the orchestrator guarantees this by registering in
// Prepare, before any instance is provisioned.
func (r *Registry) Register(ctx *cluster.Ctx, image blob.ID, members []cluster.NodeID) *Cohort {
	r.mu.Lock()
	co, ok := r.cohorts[image]
	if !ok {
		co = &Cohort{reg: r, image: image, members: make(map[cluster.NodeID]bool), chunks: make(map[blob.ChunkKey]*chunk)}
		r.cohorts[image] = co
	}
	r.mu.Unlock()

	co.mu.Lock()
	added := 0
	for _, m := range members {
		if m != r.tracker && !co.members[m] {
			co.members[m] = true
			co.order = append(co.order, m)
			added++
			for int(m) >= len(co.fetching) {
				co.fetching = append(co.fetching, nil)
			}
		}
	}
	for _, ck := range co.chunks {
		ck.given = append(ck.given, make([]uint8, len(co.fetching)-len(ck.given))...)
	}
	targets := append([]cluster.NodeID(nil), co.order...)
	co.mu.Unlock()

	if added > 0 { // membership rides the binomial control tree from the tracker
		r.fromTracker(ctx, targets, int64(added)*r.cfg.AnnounceBytes)
	}
	return co
}

// Cohort returns the cohort registered for an image, or nil.
func (r *Registry) Cohort(image blob.ID) *Cohort {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cohorts[image]
}

// ChunksReclaimed implements blob.ReclaimListener: the garbage
// collector reports the chunk keys it released, and the tracker drops
// its record of them across all cohorts — a reclaimed chunk must not be
// offered to siblings anymore. The drop is tracker-local, so it charges
// nothing. A Locate in flight during the drop can still steer a reader
// to a stale holder; the reader's provider fall-back
// (blob.Client.getChunk) absorbs exactly that race.
func (r *Registry) ChunksReclaimed(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	r.eachCohort(func(co *Cohort) { co.dropReclaimed(ctx, keys) })
}

// dropReclaimed removes the cohort's record of the given keys, copies
// given included. That also cancels the phase-1 reservations of announces
// still in flight: their phase 2 finds the pair gone and leaves the freed
// chunk unpublished. Fetches of a key still in flight are settled as
// failed, which sends their waiters to the providers.
func (co *Cohort) dropReclaimed(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, key := range keys {
		ck := co.chunks[key]
		if ck == nil {
			continue
		}
		if len(ck.held) > 0 {
			co.stats.Reclaimed++
		}
		for fl := &ck.fl; fl.head < len(fl.fetches); {
			co.settleLocked(ctx, key, ck, fl.head, false)
		}
		delete(co.chunks, key)
	}
}

// fromTracker runs a control broadcast rooted at the tracker node,
// spawning onto it first when the calling activity lives elsewhere.
func (r *Registry) fromTracker(ctx *cluster.Ctx, targets []cluster.NodeID, bytes int64) {
	if len(targets) == 0 || bytes <= 0 {
		return
	}
	if ctx.Node() == r.tracker {
		broadcast.Control(ctx, r.tracker, targets, bytes)
		return
	}
	t := ctx.Go("p2p-control", r.tracker, func(cc *cluster.Ctx) {
		broadcast.Control(cc, r.tracker, targets, bytes)
	})
	ctx.Wait(t)
}

// Cohort is the sharing state of one deployed image. It implements
// blob.ChunkSharer; the member identity of every call is the calling
// activity's node.
type Cohort struct {
	reg   *Registry
	image blob.ID

	mu      sync.Mutex
	members map[cluster.NodeID]bool
	order   []cluster.NodeID // deterministic member iteration
	chunks  map[blob.ChunkKey]*chunk
	// fetching lists, by member, its fetches on record in the order they
	// went there: at most its connection pool and a commit's gap fill.
	fetching [][]onRecord
	waits    []*wait // wait records handed back by their last child
	stats    Stats
}

// chunk is what the tracker knows about one chunk.
type chunk struct {
	// held is the (member, chunk) dedup set: every published record plus
	// the phase-1 reservations of announces whose RPC is still in flight.
	held    map[cluster.NodeID]bool
	holders []cluster.NodeID // the published records, in announce order
	// given counts, by member, the copies of the chunk it has promised,
	// never more than fanOut. A promise that will not be kept is handed
	// back (settleLocked), and a count goes with the member's record: on
	// Retract, on its death, on reclamation.
	given []uint8
	// Exhaustion lasts, so two cursors into holders make a pick on the
	// flat cluster amortised O(1): every holder before fresh has given a
	// copy, every holder before spare has given fanOut.
	fresh, spare int
	fl           flight // reused once its fetches have settled
}

// chunkLocked returns key's record, which it creates if there is none.
func (co *Cohort) chunkLocked(key blob.ChunkKey) *chunk {
	ck := co.chunks[key]
	if ck == nil {
		ck = &chunk{held: make(map[cluster.NodeID]bool), given: make([]uint8, len(co.fetching))}
		co.chunks[key] = ck
	}
	return ck
}

// removeHolder withdraws n's published record, if it has one.
func (ck *chunk) removeHolder(n cluster.NodeID) {
	if i := slices.Index(ck.holders, n); i >= 0 {
		ck.holders = slices.Delete(ck.holders, i, i+1)
		if i < ck.fresh {
			ck.fresh--
		}
		if i < ck.spare {
			ck.spare--
		}
	}
}

// spent reports whether n, a member or noNode, has no copy left to give.
func (ck *chunk) spent(n cluster.NodeID) bool { return n == noNode || ck.given[n] >= fanOut }

// onRecord names one entry of a chunk's in-flight record. An entry keeps
// its index until the record is emptied, which takes it settled.
type onRecord struct {
	key blob.ChunkKey
	at  int
}

// earliestLocked returns the index in key's record of member's earliest
// entry there, if it has one.
func (co *Cohort) earliestLocked(member cluster.NodeID, key blob.ChunkKey) (int, bool) {
	for _, r := range co.fetching[member] {
		if r.key == key {
			return r.at, true
		}
	}
	return 0, false
}

// flight is the in-flight record of one chunk: the members whose own
// fetch of it is under way, in arrival order, each the parent of up to
// fanOut requesters that wait for it (pickFetcherLocked). An entry is
// settled exactly once: by the fetcher's Landed, or before that by its
// death or the chunk's reclamation.
type flight struct {
	fetches []fetch
	head    int // the first entry not settled
	next    int // where a pick starts: entries before it were settled or have given fanOut
}

type fetch struct {
	node cluster.NodeID // noNode once settled
	wait *wait          // what node's children hold; nil until one attaches
}

// wait is what the children of one fetch block on. The record outlives
// the entry, which is cleared when it settles: ok is how the fetch ended,
// written before the gate opens and read once it has. The last child to
// read it hands the record back to the cohort (Cohort.waits).
type wait struct {
	gate     cluster.Gate
	children uint8
	ok       bool
}

// noNode marks a settled entry of a flight.
const noNode cluster.NodeID = -1

// settleLocked closes entry i of key's in-flight record (in ck) with the
// outcome ok, releases its waiters and, once every entry is settled,
// empties the record for reuse. After a failure the waiters read nothing
// from the member, so the copies promised them are handed back.
func (co *Cohort) settleLocked(ctx *cluster.Ctx, key blob.ChunkKey, ck *chunk, i int, ok bool) {
	fl := &ck.fl
	f := &fl.fetches[i]
	fetching := &co.fetching[f.node]
	at := slices.Index(*fetching, onRecord{key, i})
	*fetching = slices.Delete(*fetching, at, at+1)
	if w := f.wait; w != nil {
		if !ok {
			ck.given[f.node] -= w.children
			// The member may lie behind the cursors with a copy to give again.
			ck.fresh, ck.spare, fl.next = 0, 0, fl.head
		}
		w.ok = ok
		w.gate.Open(ctx)
	}
	*f = fetch{node: noNode}
	for fl.head < len(fl.fetches) && fl.fetches[fl.head].node == noNode {
		fl.head++
	}
	if fl.head == len(fl.fetches) {
		*fl = flight{fetches: fl.fetches[:0]}
	}
}

// Stats returns a snapshot of the protocol counters.
func (co *Cohort) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

// InFlight returns the number of fetches on record and not settled yet.
func (co *Cohort) InFlight() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, fetching := range co.fetching {
		n += len(fetching)
	}
	return n
}

// Announce implements blob.ChunkSharer: it registers ctx.Node() as a
// holder of the given chunks with one small RPC to the tracker.
// Already-known (member, chunk) pairs are filtered out first — the
// guard that keeps a chunk announced both by a guest read and by a
// concurrent commit's gap fill from being double-counted — and an
// all-duplicate announcement costs nothing. The new locations become
// visible to Locate only after the RPC completes: a sibling cannot be
// steered to a holder before the announcement could physically have
// reached the tracker.
func (co *Cohort) Announce(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	if !co.reg.lv.Alive(member) {
		return // a dead node must not (re)register as an uploader
	}
	co.mu.Lock()
	if !co.members[member] {
		co.mu.Unlock()
		return
	}
	// Phase 1: reserve the fresh pairs (exact dedup against concurrent
	// announcers) without publishing them yet.
	var fresh []blob.ChunkKey
	for _, key := range keys {
		if key == 0 {
			continue // sparse chunks have no payload to share
		}
		ck := co.chunkLocked(key)
		if ck.held[member] {
			co.stats.Duplicates++
			continue
		}
		ck.held[member] = true
		fresh = append(fresh, key)
	}
	co.mu.Unlock()
	if len(fresh) == 0 {
		return
	}

	ctx.RPC(co.reg.tracker, int64(len(fresh))*co.reg.cfg.AnnounceBytes, 16)

	// Phase 2: the announcement has reached the tracker; publish the
	// locations. A pair retracted or reclaimed, or whose member died,
	// while the RPC was in flight (held entry gone again) stays
	// unpublished.
	co.mu.Lock()
	for _, key := range fresh {
		if ck := co.chunks[key]; ck != nil && ck.held[member] {
			ck.holders = append(ck.holders, member)
			co.stats.Announced++
		}
	}
	co.mu.Unlock()
}

// Landed implements blob.ChunkSharer: ctx.Node()'s read of the chunk,
// put on record by Fetching, has ended, with the payload in hand (ok) or
// without. Whoever waits on it is released and reads from the member or,
// after a failure, from the providers. It is said to the waiters, not to
// the tracker, and costs nothing.
//
// It settles the member's earliest fetch of the chunk on record, if any.
// A member's waiters always sit on its earliest entry (the pick meets
// that one first), so whichever of its fetches ends first releases them.
func (co *Cohort) Landed(ctx *cluster.Ctx, key blob.ChunkKey, ok bool) {
	member := ctx.Node()
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.members[member] {
		return
	}
	if at, found := co.earliestLocked(member, key); found {
		co.settleLocked(ctx, key, co.chunks[key], at, ok)
	}
}

// Retract implements blob.ChunkSharer: ctx.Node() withdraws itself as a
// holder of the given chunks, with one small RPC to the tracker for the
// batch. Pairs the tracker does not know are ignored. The copies it gave go
// with its record, unless children wait below a fetch it has in flight again.
func (co *Cohort) Retract(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	co.mu.Lock()
	dropped := 0
	for _, key := range keys {
		ck := co.chunks[key]
		if ck == nil || !ck.held[member] {
			continue
		}
		delete(ck.held, member)
		ck.removeHolder(member)
		if _, fetching := co.earliestLocked(member, key); !fetching {
			ck.given[member] = 0
		}
		co.stats.Retracted++
		dropped++
	}
	co.mu.Unlock()
	if dropped > 0 {
		ctx.RPC(co.reg.tracker, int64(dropped)*co.reg.cfg.AnnounceBytes, 16)
	}
}

// Locate implements blob.ChunkSharer: it returns a cohort peer to read
// the chunk from, and counts the copy against it. The nearest tier comes
// first, and within it a member whose own fetch of the chunk is in flight
// with a copy left (pickFetcherLocked; Locate returns once the fetch has
// settled) before a published holder with one (pickHolderLocked).
// ok=false sends the caller to the providers: nobody has or
// fetches the chunk, every copy is spoken for, or the fetch waited on
// ended without the chunk. A Locate leaves nothing behind that another
// caller could wait on; what it returns as release does nothing (see
// blob.ChunkSharer).
func (co *Cohort) Locate(ctx *cluster.Ctx, key blob.ChunkKey) (cluster.NodeID, func(), bool) {
	peer, _, ok := co.locate(ctx, key, false)
	return peer, func() {}, ok
}

// Fetching implements blob.ChunkSharer: Locate, and ctx.Node() goes on
// record as fetching the chunk, whatever the answer, until its Landed.
// inHand reports a parent that landed the fetch this caller waited on.
func (co *Cohort) Fetching(ctx *cluster.Ctx, key blob.ChunkKey) (peer cluster.NodeID, inHand, ok bool) {
	return co.locate(ctx, key, true)
}

func (co *Cohort) locate(ctx *cluster.Ctx, key blob.ChunkKey, fetching bool) (peer cluster.NodeID, inHand, found bool) {
	req := ctx.Node()
	co.mu.Lock()
	member := co.members[req]
	co.mu.Unlock()
	if !member {
		return 0, false, false
	}
	ctx.RPC(co.reg.tracker, 32, 32)
	co.mu.Lock()
	defer co.mu.Unlock()
	ck := co.chunkLocked(key)
	fl := &ck.fl
	var w *wait
	peer, tier, any, found := co.pickHolderLocked(ck, req)
	if len(fl.fetches) > 0 {
		any = true
		if f := co.pickFetcherLocked(key, ck, req, min(tier+1, cluster.TierRemote)); f != nil {
			if n := len(co.waits); f.wait == nil && n > 0 {
				f.wait, co.waits = co.waits[n-1], co.waits[:n-1]
			} else if f.wait == nil {
				f.wait = new(wait)
			}
			f.wait.children++
			peer, w, found = f.node, f.wait, true
		}
	}
	if found {
		ck.given[peer]++
	}
	if fetching {
		co.fetching[req] = append(co.fetching[req], onRecord{key, len(fl.fetches)})
		fl.fetches = append(fl.fetches, fetch{node: req})
	}
	if w != nil {
		co.mu.Unlock()
		w.gate.Wait(ctx)
		co.mu.Lock()
		// If the fetch waited on landed, the parent has the payload in hand,
		// whatever its mirror does with it; if not, the count went back.
		inHand = w.ok && co.reg.lv.Alive(peer)
		found, any = inHand, inHand
		if w.children--; w.children == 0 { // settleLocked sets ok anew
			w.gate.Reset()
			co.waits = append(co.waits, w)
		}
	}
	switch {
	case found:
		co.stats.PeerHits++
		co.stats.TierHits[co.reg.topo.Tier(req, peer)]++
		return peer, inHand && fetching, true
	case any:
		co.stats.Saturated++
	default:
		co.stats.Misses++
	}
	return 0, false, false
}

// pickFetcherLocked chooses the entry of key's in-flight record that req
// waits on, or nil: the earliest live fetcher with a copy left to give,
// so that the tree fills level by level, the nearest tier first. The tier
// must be nearer than below, one past the found holder's or TierRemote: a
// fetch in another zone is no better than the providers, which have it now.
//
// The search stops at req's own earliest entry. Every wait therefore goes
// to an entry that went on record earlier than any of the requester's,
// and an entry settles when its own read ends, which waits for nothing
// but such a wait: no chain of waits can return to where it began.
func (co *Cohort) pickFetcherLocked(key blob.ChunkKey, ck *chunk, req cluster.NodeID, below cluster.Tier) *fetch {
	fl := &ck.fl
	for fl.next < len(fl.fetches) && ck.spent(fl.fetches[fl.next].node) {
		fl.next++
	}
	// stop may lie before next: req had given its copies away then.
	stop, own := co.earliestLocked(req, key)
	if !own {
		stop = len(fl.fetches)
	}
	var best *fetch
	for i := fl.next; i < stop && below > cluster.TierRack; i++ {
		f := &fl.fetches[i]
		if ck.spent(f.node) || !co.reg.lv.Alive(f.node) {
			continue
		}
		if tier := co.reg.topo.Tier(req, f.node); tier < below {
			best, below = f, tier
		}
	}
	return best
}

// pickHolderLocked chooses the published holder req reads from: the
// nearest tier first, within it one that has given no copy before one
// that has given one, and the first to announce among equals. A holder the
// liveness registry reports dead is never eligible, even in the window
// before dropDeadMember ran. any reports whether somebody other than req
// holds the chunk at all, which tells a miss from a chunk whose copies are
// all spoken for. A same-rack holder is unbeatable within its pass, and on
// the flat cluster everybody is same-rack: the pick is the holder at the
// fresh cursor, or the one at spare once everybody has given a copy, and a
// popular chunk of a 10k-member cohort costs no scan of its holders.
func (co *Cohort) pickHolderLocked(ck *chunk, req cluster.NodeID) (best cluster.NodeID, bestTier cluster.Tier, any, found bool) {
	hs, bestTier := ck.holders, cluster.TierRemote // the tier to beat when nobody is found
	for ck.fresh < len(hs) && ck.given[hs[ck.fresh]] > 0 {
		ck.fresh++
	}
	for ck.spare < len(hs) && ck.spent(hs[ck.spare]) {
		ck.spare++
	}
	any = ck.spare > 0
	for given, from := 0, ck.fresh; given < fanOut; given, from = given+1, ck.spare {
		for _, h := range hs[from:] {
			if h == req || !co.reg.lv.Alive(h) {
				continue
			}
			any = true
			if int(ck.given[h]) != given {
				continue
			}
			if tier := co.reg.topo.Tier(req, h); !found || tier < bestTier {
				best, bestTier, found = h, tier, true
			}
			if bestTier == cluster.TierRack {
				return best, bestTier, any, true
			}
		}
	}
	return best, bestTier, any, found
}
