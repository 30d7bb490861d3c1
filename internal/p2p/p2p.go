package p2p

import (
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
	Misses      int64 // fell back to providers: no sibling holds it
	Saturated   int64 // fell back: every holder at MaxUploads
	// DigestHits and DigestPushes counted the cohort-wide location
	// digest, which is gone (members keep no location state; see
	// doc.go). Both always read 0; the fields stay because the repo's
	// benchmark (bench/simrun.go) reads them.
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
	// lv, when set, is the cluster liveness registry: Locate never
	// returns a holder it reports dead, and announcements from dead
	// members are ignored. Wire NodeChanged as its OnChange listener
	// so a death also drops the member's location records.
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

// peerAlive reports whether a node may serve or announce chunks: true
// without a liveness registry (no fault injection configured).
func (r *Registry) peerAlive(n cluster.NodeID) bool {
	return r.lv == nil || r.lv.Alive(n)
}

// NodeChanged is the cluster liveness hook: wire it with
// Liveness.OnChange. A death retracts every location record the dead
// member held across all cohorts — the tracker must never steer a
// reader to a dead uploader. The drop is tracker-local: members keep no
// location state, so there is nobody to inform. A revival needs no
// tracker action: the records are already gone, and the peer
// re-announces whatever it still mirrors on its next fetches (the
// (member, chunk) dedup pairs were cleared with the records).
func (r *Registry) NodeChanged(_ *cluster.Ctx, node cluster.NodeID, alive bool) {
	if alive {
		return
	}
	r.eachCohort(func(co *Cohort) { co.dropDeadMember(node) })
}

// eachCohort runs fn on every cohort, in map order. That order is
// unobservable as long as fn only edits the cohort's own tracker-local
// state and charges nothing to the fabric, which holds for both
// callers now that record drops are not broadcast (anything that
// charges RPCs per cohort would have to sort by image first: the
// determinism convention).
func (r *Registry) eachCohort(fn func(*Cohort)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, co := range r.cohorts {
		fn(co)
	}
}

// dropDeadMember withdraws every location record node holds in the
// cohort, published or still reserved by an announce in flight.
func (co *Cohort) dropDeadMember(node cluster.NodeID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for key, who := range co.held {
		if !who[node] {
			continue
		}
		delete(who, node)
		co.holders[key] = removeNode(co.holders[key], node)
		co.stats.DeadDropped++
	}
}

// NewRegistry creates a registry hosted on the tracker node.
func NewRegistry(tracker cluster.NodeID, cfg Config) *Registry {
	return &Registry{tracker: tracker, cfg: cfg, cohorts: make(map[blob.ID]*Cohort)}
}

// Tracker returns the node hosting the registry.
func (r *Registry) Tracker() cluster.NodeID { return r.tracker }

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
			uploads: make(map[cluster.NodeID]int),
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
func (r *Registry) ChunksReclaimed(_ *cluster.Ctx, keys []blob.ChunkKey) {
	r.eachCohort(func(co *Cohort) { co.dropReclaimed(keys) })
}

// dropReclaimed removes every location record of the given keys from
// the cohort. Dropping a key's held set also cancels the phase-1
// reservations of announces still in flight: their phase 2 finds the
// pair gone and leaves the freed chunk unpublished. The cost is O(keys),
// whatever the cohort size.
func (co *Cohort) dropReclaimed(keys []blob.ChunkKey) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, key := range keys {
		if len(co.held[key]) > 0 {
			co.stats.Reclaimed++
		}
		delete(co.held, key)
		delete(co.holders, key)
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
	held    map[blob.ChunkKey]map[cluster.NodeID]bool
	uploads map[cluster.NodeID]int
	stats   Stats
}

// Image returns the blob this cohort shares.
func (co *Cohort) Image() blob.ID { return co.image }

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

// Announce implements blob.ChunkSharer: it registers ctx.Node() as a
// holder of the given chunks with one small RPC to the tracker.
// Already-known (member, chunk) pairs are filtered out first — the
// guard that keeps a chunk announced both by a prefetch and by a
// concurrent demand fetch from being double-counted — and an
// all-duplicate announcement costs nothing. The new locations become
// visible to Locate only after the RPC completes: a sibling cannot be
// steered to a holder before the announcement could physically have
// reached the tracker.
func (co *Cohort) Announce(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	if !co.reg.peerAlive(member) {
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

// Locate implements blob.ChunkSharer: it returns the least-loaded
// cohort peer holding the chunk, reserving one of its upload slots.
// Every lookup pays one small RPC to query the tracker's live map —
// members keep no location state of their own — so the answer is never
// staler than that round trip. ok=false sends the caller to the
// providers (nobody has the chunk, or every holder is at its upload
// cap).
func (co *Cohort) Locate(ctx *cluster.Ctx, key blob.ChunkKey) (cluster.NodeID, func(), bool) {
	req := ctx.Node()
	co.mu.Lock()
	member := co.members[req]
	co.mu.Unlock()
	if !member {
		return 0, nil, false
	}
	ctx.RPC(co.reg.tracker, 32, 32)
	co.mu.Lock()
	peer, any, found := co.pickLocked(co.holders[key], req)
	if !found {
		if any {
			co.stats.Saturated++
		} else {
			co.stats.Misses++
		}
		co.mu.Unlock()
		return 0, nil, false
	}
	co.uploads[peer]++
	co.stats.PeerHits++
	co.stats.TierHits[co.reg.topo.Tier(req, peer)]++
	co.mu.Unlock()
	release := func() {
		co.mu.Lock()
		co.uploads[peer]--
		co.mu.Unlock()
	}
	return peer, release, true
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
func (co *Cohort) pickLocked(holders []cluster.NodeID, req cluster.NodeID) (best cluster.NodeID, any, found bool) {
	maxUp := co.reg.cfg.MaxUploads
	var bestTier cluster.Tier
	var bestLoad int
	for _, h := range holders {
		if h == req || !co.reg.peerAlive(h) {
			continue
		}
		any = true
		load := co.uploads[h]
		if maxUp > 0 && load >= maxUp {
			continue
		}
		tier := co.reg.topo.Tier(req, h)
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
	return best, any, found
}

// removeNode deletes the first occurrence of n, in place.
func removeNode(nodes []cluster.NodeID, n cluster.NodeID) []cluster.NodeID {
	if i := slices.Index(nodes, n); i >= 0 {
		return slices.Delete(nodes, i, i+1)
	}
	return nodes
}
