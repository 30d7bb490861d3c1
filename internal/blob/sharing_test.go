package blob

import (
	"sync"
	"testing"

	"blobvfs/internal/cluster"
)

// fakeSharer scripts the peer-selection policy for client tests: it
// serves the configured keys from a fixed peer and records calls.
type fakeSharer struct {
	peer   cluster.NodeID
	inHand bool // what Fetching says of every peer it names

	mu        sync.Mutex
	has       map[ChunkKey]bool
	locates   int
	served    int
	announced []ChunkKey
	fetching  []ChunkKey // keys registered through Fetching
	landed    []ChunkKey // keys settled through Landed with ok
	failed    []ChunkKey // and without
}

func (f *fakeSharer) Locate(ctx *cluster.Ctx, key ChunkKey) (cluster.NodeID, func(), bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.locates++
	if !f.has[key] {
		return 0, nil, false
	}
	f.served++
	return f.peer, nil, true
}

func (f *fakeSharer) Announce(ctx *cluster.Ctx, keys []ChunkKey) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.announced = append(f.announced, keys...)
}

func (f *fakeSharer) Retract(ctx *cluster.Ctx, keys []ChunkKey) {}

func (f *fakeSharer) Fetching(ctx *cluster.Ctx, key ChunkKey) (cluster.NodeID, bool, bool) {
	f.mu.Lock()
	f.fetching = append(f.fetching, key)
	f.mu.Unlock()
	peer, _, ok := f.Locate(ctx, key)
	return peer, ok && f.inHand, ok
}

func (f *fakeSharer) Landed(ctx *cluster.Ctx, key ChunkKey, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ok {
		f.landed = append(f.landed, key)
	} else {
		f.failed = append(f.failed, key)
	}
}

// newShareRig uploads a 4-chunk blob and returns a reader client with
// the sharer attached.
func newShareRig(t *testing.T, s ChunkSharer) (*cluster.Live, *System, *Client, ID, Version) {
	t.Helper()
	fab := cluster.NewLive(4)
	sys := NewSystem([]cluster.NodeID{0, 1, 2, 3}, 0, 1)
	var id ID
	var v Version
	fab.Run(func(ctx *cluster.Ctx) {
		w := NewClient(sys)
		var err error
		id, err = w.Create(ctx, 32<<10, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		v, err = w.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	c := NewClient(sys)
	c.SetSharer(s)
	return fab, sys, c, id, v
}

// TestFetchFallsBackToProvidersWithoutPeer: when the sharer has no
// holder for any chunk, every read is served by the providers, exactly
// as with no sharer at all.
func TestFetchFallsBackToProvidersWithoutPeer(t *testing.T) {
	s := &fakeSharer{peer: 2, has: map[ChunkKey]bool{}}
	fab, sys, c, id, v := newShareRig(t, s)
	fab.Run(func(ctx *cluster.Ctx) {
		fetched, err := c.FetchChunks(ctx, id, v, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(fetched) != 4 {
			t.Fatalf("fetched %d chunks, want 4", len(fetched))
		}
	})
	if got := sys.Providers.Reads.Load(); got != 4 {
		t.Errorf("provider reads = %d, want 4 (full fallback)", got)
	}
	if s.locates != 4 || s.served != 0 {
		t.Errorf("sharer saw %d locates, served %d; want 4 and 0", s.locates, s.served)
	}
}

// TestFetchPrefersPeer: chunks a peer holds are served by the peer (no
// provider read), and the client owes the sharer nothing afterwards: the
// fake's Locate returns a nil func, which nobody may call.
func TestFetchPrefersPeer(t *testing.T) {
	s := &fakeSharer{peer: 2, has: map[ChunkKey]bool{}}
	fab, sys, c, id, v := newShareRig(t, s)
	// Mark every stored chunk as peer-held.
	var keys []ChunkKey
	fab.Run(func(ctx *cluster.Ctx) {
		probe := NewClient(sys)
		fetched, err := probe.FetchChunks(ctx, id, v, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, fc := range fetched {
			keys = append(keys, fc.Key)
			s.has[fc.Key] = true
		}
	})
	before := sys.Providers.Reads.Load()
	fab.Run(func(ctx *cluster.Ctx) {
		if _, err := c.FetchChunks(ctx, id, v, 0, 4); err != nil {
			t.Fatal(err)
		}
	})
	if got := sys.Providers.Reads.Load() - before; got != 0 {
		t.Errorf("provider reads = %d, want 0 (all peer-served)", got)
	}
	if s.served != 4 {
		t.Errorf("served %d, want 4", s.served)
	}
}

// TestWriteChunksAnnouncesWrittenKeys: a writer with a sharer offers
// the chunks it just pushed (it holds their full content locally).
func TestWriteChunksAnnouncesWrittenKeys(t *testing.T) {
	s := &fakeSharer{peer: 1, has: map[ChunkKey]bool{}}
	fab, _, c, id, v := newShareRig(t, s)
	fab.Run(func(ctx *cluster.Ctx) {
		_, err := c.WriteChunks(ctx, id, v, []ChunkWrite{
			{Index: 1, Payload: SyntheticPayload(8<<10, 9)},
			{Index: 3, Payload: SyntheticPayload(8<<10, 9)},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(s.announced) != 2 {
		t.Errorf("announced %d keys, want 2", len(s.announced))
	}
}

// TestOnlySharedFetchesGoOnRecord: FetchChunksShared puts every chunk it
// fetches on record with the sharer (Fetching) and takes each off again
// (Landed) exactly once, saying whether the read got the payload. A plain
// FetchChunks only locates.
func TestOnlySharedFetchesGoOnRecord(t *testing.T) {
	s := &fakeSharer{peer: 2, has: map[ChunkKey]bool{}}
	fab, sys, c, id, v := newShareRig(t, s)
	lv := cluster.NewLiveness(4)
	sys.Providers.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		if _, err := c.FetchChunks(ctx, id, v, 0, 4); err != nil {
			t.Fatal(err)
		}
		if len(s.fetching) != 0 || len(s.landed)+len(s.failed) != 0 {
			t.Fatalf("a plain fetch put %d chunks on record and settled %d", len(s.fetching), len(s.landed)+len(s.failed))
		}
		if _, err := c.FetchChunksShared(ctx, id, v, 0, 4); err != nil {
			t.Fatal(err)
		}
		if len(s.fetching) != 4 || len(s.landed) != 4 || len(s.failed) != 0 {
			t.Fatalf("a shared fetch: %d chunks on record, %d landed, %d failed; want 4, 4 and 0", len(s.fetching), len(s.landed), len(s.failed))
		}
		for n := cluster.NodeID(0); n < 4; n++ {
			lv.Kill(ctx, n)
		}
		if _, err := c.FetchChunksShared(ctx, id, v, 0, 4); err == nil {
			t.Fatal("fetch with every provider dead succeeded")
		}
		if len(s.fetching) != 8 || len(s.landed) != 4 || len(s.failed) != 4 {
			t.Fatalf("a failed shared fetch: %d chunks on record in all, %d landed, %d failed; want 8, 4 and 4", len(s.fetching), len(s.landed), len(s.failed))
		}
		// The second consultation after ErrNoReplica is a plain Locate.
		if s.locates != 4+4+2*4 {
			t.Fatalf("sharer saw %d locates, want 16", s.locates)
		}
	})
}

// TestInHandCopyCostsThePeerNoDisk: a copy Fetching says is in hand is
// charged to the peer's NIC alone; any other peer copy costs the peer one
// disk op, a seek and the chunk.
func TestInHandCopyCostsThePeerNoDisk(t *testing.T) {
	const peer = cluster.NodeID(4)
	for _, inHand := range []bool{true, false} {
		cfg := cluster.DefaultConfig(5)
		fab := cluster.NewSim(cfg)
		sys := NewSystem([]cluster.NodeID{0, 1, 2, 3}, 0, 1)
		s := &fakeSharer{peer: peer, inHand: inHand, has: map[ChunkKey]bool{}}
		c := NewClient(sys)
		fab.Run(func(ctx *cluster.Ctx) {
			id, err := c.Create(ctx, 32<<10, 8<<10)
			if err != nil {
				t.Fatal(err)
			}
			v, err := c.WriteFull(ctx, id, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			fetched, err := c.FetchChunks(ctx, id, v, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.has[fetched[0].Key] = true
			c.SetSharer(s)
			if _, err := c.FetchChunksShared(ctx, id, v, 0, 1); err != nil {
				t.Fatal(err)
			}
		})
		want := 0.0
		if !inHand {
			want = 8<<10 + cfg.DiskSeek*cfg.DiskBandwidth
		}
		if got := fab.Disk(peer).Served; s.served != 1 || got != want {
			t.Errorf("inHand=%v: %d peer copies cost the peer's disk %v units, want 1 and %v", inHand, s.served, got, want)
		}
	}
}
