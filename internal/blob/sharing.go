package blob

import (
	"errors"

	"blobvfs/internal/cluster"
)

// ChunkSharer is the hook the peer-to-peer chunk-sharing layer
// (internal/p2p) plugs into the client's data path. A client with a
// sharer consults it before every provider read: if a cohort peer
// already mirrors the chunk, the transfer is served from that peer's
// local disk instead of the chunk's home provider, so provider load
// stops scaling with the number of concurrent readers of a hot image.
//
// The interface lives here (and not in internal/p2p) so the storage
// client stays free of a dependency on the sharing layer; p2p.Cohort
// is the production implementation.
type ChunkSharer interface {
	// Locate returns a peer node holding the chunk that is willing to
	// serve it, or ok=false to fall back to the providers. It may wait
	// for a peer whose own fetch of the chunk is in flight. The caller
	// owes the sharer nothing afterwards: the copy is counted against
	// the peer when it is promised. The requesting node (ctx.Node()) is
	// never returned as its own peer. A Locate leaves no state behind.
	// release does nothing and is not called; it stays because the
	// benchmark calls p2p.Cohort.Locate by this shape (bench/probes.go)
	// and only a benchmark change may edit that.
	Locate(ctx *cluster.Ctx, key ChunkKey) (peer cluster.NodeID, release func(), ok bool)
	// Fetching is Locate for a caller that brings the chunk in to keep
	// it: whatever the answer, ctx.Node() is on record as fetching the
	// chunk, and siblings may be made to wait for the outcome. The
	// caller owes exactly one Landed of the chunk. inHand says the peer
	// is a parent whose fetch the caller waited on and which has just
	// landed the chunk: it serves the payload from memory, not its disk.
	Fetching(ctx *cluster.Ctx, key ChunkKey) (peer cluster.NodeID, inHand, ok bool)
	// Landed ends ctx.Node()'s fetch of the chunk: ok says whether the
	// payload is in hand, and if so a sibling that waited reads it from
	// this node, which holds the chunk from now on.
	Landed(ctx *cluster.Ctx, key ChunkKey, ok bool)
	// Announce registers ctx.Node() as a holder of chunks it wrote
	// itself (a commit). (node, key) pairs it already holds cost nothing.
	Announce(ctx *cluster.Ctx, keys []ChunkKey)
	// Retract withdraws ctx.Node() as a holder of the chunks (the
	// local copies diverged from the published content, e.g. mirrored
	// chunks were dirtied by a guest write). Like Announce, one call
	// covers a batch; unknown pairs are ignored.
	Retract(ctx *cluster.Ctx, keys []ChunkKey)
}

// SetSharer attaches a peer-to-peer chunk sharer to the client. Reads
// then prefer cohort peers over providers, and WriteChunks announces
// freshly written chunks (the writer holds their full content
// locally). A nil sharer restores provider-only reads.
func (c *Client) SetSharer(s ChunkSharer) { c.sharer = s }

// getChunk fetches one chunk payload, preferring a cohort peer over
// the chunk's home providers. The payload itself always comes from the
// authoritative store (peers mirror published content verbatim); what
// the peer path changes is where the disk read and the transfer are
// charged — and therefore where the load lands. With keep set the fetch
// is on record with the sharer (ChunkSharer.Fetching) while it runs and
// taken off it here, the one settle point, however it ends.
//
// The fetch does not propagate the first failure: when the providers
// report every replica dead (ErrNoReplica), the cohort is consulted
// once more — a sibling that mirrored the chunk before the failure is
// a fully valid alternate source, and the first Locate may have missed
// only because every copy the holders had to give was spoken for.
func (c *Client) getChunk(ctx *cluster.Ctx, key ChunkKey, keep bool) (p Payload, err error) {
	if keep {
		defer func() { c.sharer.Landed(ctx, key, err == nil) }()
	}
	if p, ok := c.fromPeer(ctx, key, keep); ok {
		return p, nil
	}
	p, err = c.sys.Providers.Get(ctx, key)
	if err != nil && errors.Is(err, ErrNoReplica) {
		if p, ok := c.fromPeer(ctx, key, false); ok {
			return p, nil
		}
	}
	return p, err
}

// fromPeer tries to serve key from a cohort peer: locate a live
// holder, then read from its local mirror, or from its memory when the
// peer has the payload in hand. ok=false sends the caller to the
// providers (no sharer, no willing holder, or the chunk was reclaimed
// under a stale location record).
func (c *Client) fromPeer(ctx *cluster.Ctx, key ChunkKey, keep bool) (Payload, bool) {
	if c.sharer == nil {
		return Payload{}, false
	}
	var peer cluster.NodeID
	var inHand, ok bool
	if keep {
		peer, inHand, ok = c.sharer.Fetching(ctx, key)
	} else {
		peer, _, ok = c.sharer.Locate(ctx, key)
	}
	if !ok {
		return Payload{}, false
	}
	// When the tracker knew a holder but the store has no such chunk, a
	// garbage-collection sweep (gc.go) freed it after the holder was
	// located: the tracker-side retraction (ReclaimListener) is
	// asynchronous with respect to lookups in flight. The caller falls back
	// to the providers' error path, and the copy counted against the peer
	// goes with the chunk's record when that retraction lands.
	p, found := c.sys.Providers.Peek(key)
	if found {
		if !inHand {
			ctx.DiskRead(peer, int64(p.Size))
		}
		ctx.RPC(peer, 32, int64(p.Size))
	}
	return p, found
}
