package p2p

import (
	"cmp"
	"math"
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
// settles its fetches in flight (in key order, see eachCohort).
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
	keys := make([]blob.ChunkKey, 0, len(co.flights))
	for key := range co.flights {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		fl := co.flights[key]
		for i := fl.head; i < len(fl.fetches); i++ {
			if fl.fetches[i].node == node {
				co.settleLocked(ctx, fl, i)
			}
		}
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
// still in flight are settled, which sends their waiters to the
// providers. The cost is O(keys) plus the waiters released, whatever
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
				co.settleLocked(ctx, fl, fl.head)
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
	epochs  uint64        // the last memberState.epoch handed out
	stats   Stats
}

// memberState is what the tracker keeps per member beside its records.
type memberState struct {
	uploads int    // upload slots taken
	release func() // frees one; what Locate hands out
	fetches int    // fetches on record, over all chunks
	epoch   uint64 // numbers the current run of fetches: set when fetches leaves 0
}

// flight is the in-flight record of one chunk: the members whose own
// fetch of it is under way, in arrival order. A requester that finds no
// published holder with a free slot is attached to the earliest of them
// that has one and waits on its gate, so MaxUploads is the fan-out of a
// distribution tree that forms as the requests arrive. An entry is
// settled exactly once, by the fetcher's Announce or Abandon, its death
// or the chunk's reclamation; whether the wait ended well is not in the
// record but in held, which the waiter checks when it wakes.
type flight struct {
	fetches []fetch
	head    int // the first entry not settled
	next    int // where a pick starts: entries before it were settled or saturated
}

type fetch struct {
	node  cluster.NodeID // noNode once settled
	epoch uint64         // node's epoch when it went on record
	gate  *cluster.Gate  // what node's children wait on; nil until one attaches
}

// noNode marks a settled entry of a flight.
const noNode cluster.NodeID = -1

// settleLocked closes entry i of fl, releases its waiters and, once
// every entry is settled, empties the record for reuse.
func (co *Cohort) settleLocked(ctx *cluster.Ctx, fl *flight, i int) {
	f := &fl.fetches[i]
	co.state[f.node].fetches--
	if f.gate != nil {
		f.gate.Open(ctx)
	}
	*f = fetch{node: noNode}
	for fl.head < len(fl.fetches) && fl.fetches[fl.head].node == noNode {
		fl.head++
	}
	if fl.head == len(fl.fetches) {
		*fl = flight{fetches: fl.fetches[:0]}
	}
}

// settleFetchLocked settles member's earliest fetch of key on record,
// if any. A member's waiters always sit on its earliest entry (the pick
// meets that one first), so whichever of its fetches ends first
// releases them.
func (co *Cohort) settleFetchLocked(ctx *cluster.Ctx, key blob.ChunkKey, member cluster.NodeID) {
	if fl := co.flights[key]; fl != nil {
		for i := fl.head; i < len(fl.fetches); i++ {
			if fl.fetches[i].node == member {
				co.settleLocked(ctx, fl, i)
				return
			}
		}
	}
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

// InFlight returns the number of fetches on record that have not been
// settled yet. It is 0 whenever no member is fetching.
func (co *Cohort) InFlight() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, st := range co.state {
		n += st.fetches
	}
	return n
}

// Announce implements blob.ChunkSharer: it registers ctx.Node() as a
// holder of the given chunks with one small RPC to the tracker.
// Already-known (member, chunk) pairs are filtered out first — the
// guard that keeps a chunk announced both by a prefetch and by a
// concurrent demand fetch from being double-counted — and an
// all-duplicate announcement costs nothing. The new locations become
// visible to Locate only after the RPC completes: a sibling cannot be
// steered to a holder before the announcement could physically have
// reached the tracker. Siblings already waiting on the member's fetch
// of a chunk are released at once: they learn it from the member, not
// from the tracker.
func (co *Cohort) Announce(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	co.mu.Lock()
	// A dead node must not (re)register as an uploader; its fetches are
	// settled all the same.
	uploader := co.members[member] && co.reg.peerAlive(member)
	// Phase 1: reserve the fresh pairs (exact dedup against concurrent
	// announcers) without publishing them yet.
	var fresh []blob.ChunkKey
	for _, key := range keys {
		if key == 0 {
			continue // sparse chunks have no payload to share
		}
		// The waiters released here look at held once this lock is theirs.
		co.settleFetchLocked(ctx, key, member)
		if !uploader {
			continue
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

// Abandon implements blob.ChunkSharer: ctx.Node()'s fetches of the given
// chunks ended with nothing new to share, and whoever waits on them is
// sent on. It is said to the waiters, not to the tracker, and costs
// nothing.
func (co *Cohort) Abandon(ctx *cluster.Ctx, keys []blob.ChunkKey) {
	member := ctx.Node()
	co.mu.Lock()
	for _, key := range keys {
		co.settleFetchLocked(ctx, key, member)
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
// the fetch waited on ended without a copy to read. A Locate leaves
// nothing behind that another caller could wait on.
func (co *Cohort) Locate(ctx *cluster.Ctx, key blob.ChunkKey) (cluster.NodeID, func(), bool) {
	return co.locate(ctx, key, false)
}

// Fetching implements blob.ChunkSharer: Locate, and ctx.Node() goes on
// record as fetching the chunk, whatever the answer.
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
	var gate *cluster.Gate
	peer, tier, any, found := co.pickLocked(co.holders[key], req)
	fl := co.flights[key]
	if fl != nil && len(fl.fetches) > 0 && (!found || tier > cluster.TierRack) {
		any = true
		if !found {
			tier = cluster.TierRemote
		}
		if f := co.pickFetcherLocked(fl, req, tier); f != nil {
			if f.gate == nil {
				f.gate = cluster.NewGate()
			}
			peer, gate, found = f.node, f.gate, true
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
		st := &co.state[req]
		if st.fetches == 0 {
			co.epochs++
			st.epoch = co.epochs
		}
		st.fetches++
		fl.fetches = append(fl.fetches, fetch{node: req, epoch: st.epoch})
	}
	if gate != nil {
		co.mu.Unlock()
		gate.Wait(ctx)
		co.mu.Lock()
		// The fetch waited on has settled. Only a copy that landed clean
		// and is still there counts: the pair is reserved by the parent's
		// Announce and gone again after a Retract, a death or a
		// reclamation.
		if !co.held[key][peer] || !co.reg.peerAlive(peer) {
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

// pickFetcherLocked chooses the entry of fl that req waits on, or nil:
// the earliest live fetcher with a free upload slot, the nearest tier
// first, so that late arrivals hang below early ones. The tier must be
// nearer than below, which is that of the holder already found, or
// TierRemote: a fetch in another zone is not worth waiting for, the
// providers are as near and have the chunk now.
//
// Only a fetcher of an older epoch than req's is eligible. A member
// settles its fetches a batch at a time (one FetchChunksShared), so a
// wait for one chunk holds up the settling of others, and two members
// fetching overlapping ranges could wait on each other for ever. Epochs
// rule that out: a member's entries all carry the epoch of its current
// run of fetches, every wait goes to a strictly older epoch, and so no
// chain of waits can return to where it began.
func (co *Cohort) pickFetcherLocked(fl *flight, req cluster.NodeID, below cluster.Tier) *fetch {
	for fl.next < len(fl.fetches) && (fl.fetches[fl.next].node == noNode || co.saturated(fl.fetches[fl.next].node)) {
		fl.next++
	}
	mine := uint64(math.MaxUint64) // a first fetch gets the newest epoch yet
	if st := co.state[req]; st.fetches > 0 {
		mine = st.epoch
	}
	var best *fetch
	for i := fl.next; i < len(fl.fetches) && below > cluster.TierRack; i++ {
		f := &fl.fetches[i]
		// An entry of req itself has req's epoch.
		if f.node == noNode || f.epoch >= mine || co.saturated(f.node) || !co.reg.peerAlive(f.node) {
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
		if h == req || !co.reg.peerAlive(h) {
			continue
		}
		any = true
		if co.saturated(h) {
			continue
		}
		load := co.state[h].uploads
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
	return best, bestTier, any, found
}

// removeNode deletes the first occurrence of n, in place.
func removeNode(nodes []cluster.NodeID, n cluster.NodeID) []cluster.NodeID {
	if i := slices.Index(nodes, n); i >= 0 {
		return slices.Delete(nodes, i, i+1)
	}
	return nodes
}
