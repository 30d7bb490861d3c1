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
	// MaxUploads caps a member's concurrent uploads to siblings; a
	// saturated holder is skipped. 0 means unlimited.
	MaxUploads int
}

// DefaultConfig returns the calibrated protocol constants.
func DefaultConfig() Config {
	return Config{AnnounceBytes: 24, MaxUploads: 4}
}

// Stats aggregates a cohort's protocol counters.
type Stats struct {
	Announced   int64 // chunk locations accepted by the tracker
	Duplicates  int64 // announcements dropped by (member, chunk) dedup
	Retracted   int64 // locations withdrawn (local copy diverged)
	Reclaimed   int64 // locations dropped because GC freed the chunk
	DeadDropped int64 // locations dropped because their holder died
	PeerHits    int64 // Locate calls answered with a peer
	Misses      int64 // fell back to providers: no sibling holds or fetches it
	Saturated   int64 // fell back: every holder and fetcher at MaxUploads
	// DigestHits and DigestPushes always read 0; the fields stay because
	// the repo's benchmark (bench/simrun.go) reads them.
	DigestHits, DigestPushes int64

	// TierHits breaks PeerHits down by the locality tier between the
	// requester and the chosen uploader (indexed by cluster.Tier).
	// Without a topology every hit lands in cluster.TierRack —
	// locality-aware selection is what moves mass toward the low
	// tiers.
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
	// topo, when enabled, makes Locate's pick locality-first: among
	// live holders with free upload slots, the nearest tier wins and
	// load only breaks ties within a tier. The zero topology keeps
	// the pure least-loaded pick byte-identical.
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
// Liveness.OnChange. A death retracts every location record the dead
// member held across all cohorts and settles every fetch it had in
// flight — the tracker must never steer a reader to a dead uploader,
// nor leave one waiting on it. The drop is tracker-local: members keep
// no location state, so there is nobody to inform. A revival needs no
// tracker action: the records are already gone, and the peer
// re-announces whatever it still mirrors on its next fetches (the
// (member, chunk) dedup pairs were cleared with the records).
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

// dropDeadMember withdraws every location record node holds in the
// cohort, published or still reserved by an announce in flight, and
// settles its fetches in flight as failed, in the order they went on
// record (wake-ups are observable, see eachCohort).
func (co *Cohort) dropDeadMember(ctx *cluster.Ctx, node cluster.NodeID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.members[node] {
		return
	}
	for key, who := range co.held {
		if !who[node] {
			continue
		}
		delete(who, node)
		co.holders[key] = removeNode(co.holders[key], node)
		co.stats.DeadDropped++
	}
	for st := &co.state[node]; len(st.fetching) > 0; {
		r := st.fetching[0]
		co.settleLocked(ctx, r.key, co.flights[r.key], r.at, false)
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
		co = &Cohort{
			reg:     r,
			image:   image,
			members: make(map[cluster.NodeID]bool),
			holders: make(map[blob.ChunkKey][]cluster.NodeID),
			held:    make(map[blob.ChunkKey]map[cluster.NodeID]bool),
			flights: make(map[blob.ChunkKey]*flight),
		}
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
			for int(m) >= len(co.state) {
				co.state = append(co.state, memberState{})
			}
			co.state[m].release = func() {
				co.mu.Lock()
				co.state[m].uploads--
				co.mu.Unlock()
			}
		}
	}
	targets := append([]cluster.NodeID(nil), co.order...)
	co.mu.Unlock()

	if added > 0 {
		// Membership rides the binomial control tree from the tracker.
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
// every location record for them across all cohorts — a reclaimed
// chunk must not be offered to siblings anymore. The drop is
// tracker-local (the registry state lives on the tracker node, and
// members keep no location state to converge), so it charges nothing.
// A Locate in flight during the drop can still steer a reader to a
// stale holder; the reader's provider fall-back (blob.Client.getChunk)
// absorbs exactly that race.
func (r *Registry) ChunksReclaimed(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	r.eachCohort(func(co *Cohort) { co.dropReclaimed(ctx, keys) })
}

// dropReclaimed removes every location record of the given keys from
// the cohort. Dropping a key's held set also cancels the phase-1
// reservations of announces still in flight: their phase 2 finds the
// pair gone and leaves the freed chunk unpublished. Fetches of the key
// still in flight are settled as failed, which sends their waiters to
// the providers. The cost is O(keys) plus the waiters released, whatever
// the cohort size.
func (co *Cohort) dropReclaimed(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, key := range keys {
		if len(co.held[key]) > 0 {
			co.stats.Reclaimed++
		}
		delete(co.held, key)
		delete(co.holders, key)
		if fl := co.flights[key]; fl != nil {
			for fl.head < len(fl.fetches) {
				co.settleLocked(ctx, key, fl, fl.head, false)
			}
		}
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
	holders map[blob.ChunkKey][]cluster.NodeID
	// held is the (member, chunk) dedup set, by chunk: every published
	// record plus the phase-1 reservations of announces whose RPC is
	// still in flight.
	held map[blob.ChunkKey]map[cluster.NodeID]bool
	// flights is the in-flight record, by chunk. A record is kept once
	// its fetches have settled and reused by the next ones.
	flights map[blob.ChunkKey]*flight
	state   []memberState // by member
	stats   Stats
}

// memberState is what the tracker keeps per member beside its records.
type memberState struct {
	uploads int    // upload slots taken
	release func() // frees one; what Locate hands out
	// fetching lists the member's fetches on record, in the order they
	// went there: at most its connection pool and a commit's gap fill.
	fetching []onRecord
}

// onRecord names one entry of a chunk's in-flight record. An entry keeps
// its index until the record is emptied, which takes it settled.
type onRecord struct {
	key blob.ChunkKey
	at  int
}

// earliestLocked returns the index in key's record of member's earliest
// entry there, if it has one.
func (co *Cohort) earliestLocked(member cluster.NodeID, key blob.ChunkKey) (int, bool) {
	for _, r := range co.state[member].fetching {
		if r.key == key {
			return r.at, true
		}
	}
	return 0, false
}

// flight is the in-flight record of one chunk: the members whose own
// fetch of it is under way, in arrival order. A requester that finds no
// published holder with a free slot is attached to the earliest of them
// that has one and waits for it, so MaxUploads is the fan-out of a
// distribution tree that forms as the requests arrive. An entry is
// settled exactly once: by the fetcher's Landed when its read of the
// chunk ends, or before that by its death or the chunk's reclamation.
type flight struct {
	fetches []fetch
	head    int // the first entry not settled
	next    int // where a pick starts: entries before it were settled or saturated
}

type fetch struct {
	node cluster.NodeID // noNode once settled
	wait *wait          // what node's children hold; nil until one attaches
}

// wait is what the children of one fetch block on. The record outlives
// the entry, which is cleared when it settles: ok is how the fetch ended,
// written before the gate opens and read once it has.
type wait struct {
	gate cluster.Gate
	ok   bool
}

// noNode marks a settled entry of a flight.
const noNode cluster.NodeID = -1

// settleLocked closes entry i of key's record fl with the outcome ok,
// releases its waiters and, once every entry is settled, empties the
// record for reuse.
func (co *Cohort) settleLocked(ctx *cluster.Ctx, key blob.ChunkKey, fl *flight, i int, ok bool) {
	f := &fl.fetches[i]
	st := &co.state[f.node]
	at := slices.Index(st.fetching, onRecord{key, i})
	st.fetching = slices.Delete(st.fetching, at, at+1)
	if f.wait != nil {
		f.wait.ok = ok
		f.wait.gate.Open(ctx)
	}
	*f = fetch{node: noNode}
	for fl.head < len(fl.fetches) && fl.fetches[fl.head].node == noNode {
		fl.head++
	}
	if fl.head == len(fl.fetches) {
		*fl = flight{fetches: fl.fetches[:0]}
	}
}

// Members returns the cohort membership in registration order.
func (co *Cohort) Members() []cluster.NodeID {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append([]cluster.NodeID(nil), co.order...)
}

// Stats returns a snapshot of the protocol counters.
func (co *Cohort) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

// InFlight returns the number of fetches on record that have not been
// settled yet. It is 0 whenever no member is fetching.
func (co *Cohort) InFlight() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, st := range co.state {
		n += len(st.fetching)
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
		who := co.held[key]
		if who[member] {
			co.stats.Duplicates++
			continue
		}
		if who == nil {
			who = make(map[cluster.NodeID]bool)
			co.held[key] = who
		}
		who[member] = true
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
		if !co.held[key][member] {
			continue
		}
		co.holders[key] = append(co.holders[key], member)
		co.stats.Announced++
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
		co.settleLocked(ctx, key, co.flights[key], at, ok)
	}
}

// Retract implements blob.ChunkSharer: ctx.Node() withdraws itself as
// a holder of the given chunks, with one small RPC to the tracker for
// the whole batch. Pairs the tracker does not know are ignored.
func (co *Cohort) Retract(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	co.mu.Lock()
	dropped := 0
	for _, key := range keys {
		who := co.held[key]
		if !who[member] {
			continue
		}
		delete(who, member)
		co.holders[key] = removeNode(co.holders[key], member)
		co.stats.Retracted++
		dropped++
	}
	co.mu.Unlock()
	if dropped > 0 {
		ctx.RPC(co.reg.tracker, int64(dropped)*co.reg.cfg.AnnounceBytes, 16)
	}
}

// Locate implements blob.ChunkSharer: it returns a cohort peer to read
// the chunk from, holding one of its upload slots until release. A
// published holder with a free slot comes first (the nearest, then the
// least loaded); where there is none, or only farther away, the earliest
// member of the nearest tier whose own fetch of the chunk is in flight
// and has a free slot, and then Locate returns only once that fetch has
// settled. Every lookup pays one small RPC to query the tracker's live
// map — members keep no location state of their own — so the answer is
// never staler than that round trip. ok=false sends the caller to the
// providers: nobody has or fetches the chunk, every slot is taken, or
// the fetch waited on ended without the chunk. A Locate leaves nothing
// behind that another caller could wait on.
func (co *Cohort) Locate(ctx *cluster.Ctx, key blob.ChunkKey) (cluster.NodeID, func(), bool) {
	return co.locate(ctx, key, false)
}

// Fetching implements blob.ChunkSharer: Locate, and ctx.Node() goes on
// record as fetching the chunk, whatever the answer, until its Landed.
func (co *Cohort) Fetching(ctx *cluster.Ctx, key blob.ChunkKey) (cluster.NodeID, func(), bool) {
	return co.locate(ctx, key, true)
}

func (co *Cohort) locate(ctx *cluster.Ctx, key blob.ChunkKey, fetching bool) (cluster.NodeID, func(), bool) {
	req := ctx.Node()
	co.mu.Lock()
	member := co.members[req]
	co.mu.Unlock()
	if !member {
		return 0, nil, false
	}
	ctx.RPC(co.reg.tracker, 32, 32)
	co.mu.Lock()
	defer co.mu.Unlock()
	var w *wait
	peer, tier, any, found := co.pickLocked(co.holders[key], req)
	fl := co.flights[key]
	if fl != nil && len(fl.fetches) > 0 && (!found || tier > cluster.TierRack) {
		any = true
		if !found {
			tier = cluster.TierRemote
		}
		if f := co.pickFetcherLocked(key, fl, req, tier); f != nil {
			if f.wait == nil {
				f.wait = new(wait)
			}
			peer, w, found = f.node, f.wait, true
		}
	}
	if found {
		co.state[peer].uploads++
	}
	if fetching {
		if fl == nil {
			fl = &flight{}
			co.flights[key] = fl
		}
		co.state[req].fetching = append(co.state[req].fetching, onRecord{key, len(fl.fetches)})
		fl.fetches = append(fl.fetches, fetch{node: req})
	}
	if w != nil {
		co.mu.Unlock()
		w.gate.Wait(ctx)
		co.mu.Lock()
		// The fetch waited on has settled. If it landed, the parent has
		// the published payload in hand, whatever its mirror does with it.
		if !w.ok || !co.reg.lv.Alive(peer) {
			co.state[peer].uploads--
			found, any = false, false
		}
	}
	switch {
	case found:
		co.stats.PeerHits++
		co.stats.TierHits[co.reg.topo.Tier(req, peer)]++
		return peer, co.state[peer].release, true
	case any:
		co.stats.Saturated++
	default:
		co.stats.Misses++
	}
	return 0, nil, false
}

// saturated reports whether member n has every upload slot taken.
func (co *Cohort) saturated(n cluster.NodeID) bool {
	return co.reg.cfg.MaxUploads > 0 && co.state[n].uploads >= co.reg.cfg.MaxUploads
}

// pickFetcherLocked chooses the entry of key's record fl that req waits
// on, or nil: the earliest live fetcher with a free upload slot, the
// nearest tier first, so that late arrivals hang below early ones. The
// tier must be nearer than below, which is that of the holder already
// found, or TierRemote: a fetch in another zone is not worth waiting for,
// the providers are as near and have the chunk now.
//
// The search stops at req's own earliest entry. Every wait therefore goes
// to an entry that went on record earlier than any of the requester's,
// and an entry settles when its own read ends, which waits for nothing
// but such a wait: no chain of waits can return to where it began.
func (co *Cohort) pickFetcherLocked(key blob.ChunkKey, fl *flight, req cluster.NodeID, below cluster.Tier) *fetch {
	for fl.next < len(fl.fetches) && (fl.fetches[fl.next].node == noNode || co.saturated(fl.fetches[fl.next].node)) {
		fl.next++
	}
	// stop may lie before next: req's upload slots were all taken then.
	stop, own := co.earliestLocked(req, key)
	if !own {
		stop = len(fl.fetches)
	}
	var best *fetch
	for i := fl.next; i < stop && below > cluster.TierRack; i++ {
		f := &fl.fetches[i]
		if f.node == noNode || co.saturated(f.node) || !co.reg.lv.Alive(f.node) {
			continue
		}
		if tier := co.reg.topo.Tier(req, f.node); tier < below {
			best, below = f, tier
		}
	}
	return best
}

// pickLocked chooses the eligible holder by locality first, load
// second (deterministic: first-announced wins ties). With a topology
// attached, a holder in a nearer tier always beats a farther one and
// the load comparison only breaks ties within a tier; without one,
// every holder is the same tier and the pick is the historical pure
// least-loaded choice. Holders the liveness registry reports dead are
// never eligible — the record drop of dropDeadMember and this check
// together guarantee a dead uploader is never selected, even in the
// window before the drop ran. any reports whether a non-self holder
// existed at all, so the caller can distinguish miss from saturation.
func (co *Cohort) pickLocked(holders []cluster.NodeID, req cluster.NodeID) (best cluster.NodeID, bestTier cluster.Tier, any, found bool) {
	var bestLoad int
	for _, h := range holders {
		if h == req || !co.reg.lv.Alive(h) {
			continue
		}
		any = true
		if co.saturated(h) {
			continue
		}
		load := co.state[h].uploads
		tier := cluster.TierRack // on the flat cluster, whoever it is
		if co.reg.topo.Enabled() {
			tier = co.reg.topo.Tier(req, h)
		}
		if !found || tier < bestTier || (tier == bestTier && load < bestLoad) {
			best, bestTier, bestLoad, found = h, tier, load, true
		}
		if bestTier == cluster.TierRack && bestLoad == 0 {
			// Unbeatable: TierRack is the nearest tier two distinct
			// nodes can share and no load undercuts idle, while equal
			// (tier, load) never displaces an earlier pick. Stopping
			// here returns exactly the full scan's choice — which is
			// what keeps a 10k-member cohort's popular chunks (held by
			// nearly everyone) from costing O(members) per locate.
			break
		}
	}
	return best, bestTier, any, found
}

// removeNode deletes the first occurrence of n, in place.
func removeNode(nodes []cluster.NodeID, n cluster.NodeID) []cluster.NodeID {
	if i := slices.Index(nodes, n); i >= 0 {
		return slices.Delete(nodes, i, i+1)
	}
	return nodes
}
