package blob

import (
	"testing"

	"blobvfs/internal/sim"
)

// placementTiers builds both tiers over n providers at one degree.
func placementTiers(n, degree int) (*ProviderSet, *MetaService) {
	m := NewMetaService(allNodes(n))
	m.SetReplication(degree)
	return NewProviderSet(allNodes(n), degree), m
}

// checkPlacementAt checks, around one key, what the rest of the system
// takes for granted about block-cyclic chunk placement (primarySlot);
// it is the body of both TestBlockCyclicPlacement and FuzzPlacement.
func checkPlacementAt(t *testing.T, ps *ProviderSet, m *MetaService, key uint64) {
	t.Helper()
	nodes, n, degree := ps.nodes, len(ps.nodes), ps.replicas
	w := min(clientParallel, n)

	// (a) A pool of one window is the plain round-robin it always was —
	// the small-pool workloads are bit-identical on the strength of
	// this — and the metadata tier is that at any width.
	if got := ps.primarySlot(ChunkKey(key)); n <= clientParallel && got != int(key%uint64(n)) {
		t.Fatalf("n=%d: chunk key %d on slot %d, want key mod n = %d", n, key, got, key%uint64(n))
	}
	if got := m.primarySlot(NodeRef(key)); got != int(key%uint64(n)) {
		t.Fatalf("n=%d: node ref %d on slot %d, want ref mod n = %d", n, key, got, key%uint64(n))
	}

	// (b) A connection pool's worth of consecutive keys meets as many
	// disks as there are to meet, wherever it starts.
	seen := make(map[int]int)
	for k := key; k < key+clientParallel; k++ {
		seen[ps.primarySlot(ChunkKey(k))]++
	}
	if len(seen) != w {
		t.Fatalf("n=%d: keys %d..%d have %d distinct primaries, want %d", n, key, key+clientParallel-1, len(seen), w)
	}

	// (c) The aligned block around key sits on exactly one window of
	// providers, stripeRounds keys on each.
	block := uint64(w * stripeRounds)
	clear(seen)
	for k := key - key%block; k < key-key%block+block; k++ {
		seen[ps.primarySlot(ChunkKey(k))]++
	}
	if len(seen) != w {
		t.Fatalf("n=%d: the block of key %d is on %d providers, want %d", n, key, len(seen), w)
	}
	for slot, c := range seen {
		if c != stripeRounds {
			t.Fatalf("n=%d: slot %d holds %d keys of the block of key %d, want %d", n, slot, c, key, stripeRounds)
		}
	}

	// (e) The replicas of a key are still the precomputed ring of its
	// primary slot, shared and not rebuilt.
	slot := ps.primarySlot(ChunkKey(key))
	ring := ps.Replicas(ChunkKey(key))
	if len(ring) != degree || &ring[0] != &ps.rings[slot][0] || ring[0] != nodes[slot] {
		t.Fatalf("n=%d degree=%d: key %d has replicas %v, want the ring of slot %d", n, degree, key, ring, slot)
	}
}

// TestBlockCyclicPlacement walks pools of 1 to 200 providers at degrees
// 1 to 3 through checkPlacementAt — every key of the first three
// blocks, then keys from all over the key space — and adds (d): over as
// many blocks as it takes the windows to come round, every provider is
// primary equally often, so an upload still fills the pool evenly.
func TestBlockCyclicPlacement(t *testing.T) {
	rng := sim.NewRNG(24)
	for n := 1; n <= 200; n++ {
		w := min(clientParallel, n)
		block := uint64(w * stripeRounds)
		var ps *ProviderSet
		for degree := 1; degree <= min(3, n); degree++ {
			var m *MetaService
			ps, m = placementTiers(n, degree)
			for key := uint64(0); key < 3*block; key++ {
				checkPlacementAt(t, ps, m, key)
			}
			for range 20 {
				checkPlacementAt(t, ps, m, uint64(rng.Int63n(1<<62)))
			}
		}

		cycle := uint64(n / gcd(w, n)) // blocks until the window is back on slot 0
		load := make([]int, n)
		for k := uint64(0); k < cycle*block; k++ {
			load[ps.primarySlot(ChunkKey(k))]++
		}
		for slot, c := range load {
			if c != load[0] {
				t.Fatalf("n=%d: over %d blocks slot %d is primary %d times, slot 0 %d times", n, cycle, slot, c, load[0])
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// FuzzPlacement is TestBlockCyclicPlacement's generator handed to the
// fuzzer: any pool width up to 200, any degree up to 3, any key.
func FuzzPlacement(f *testing.F) {
	f.Add(uint8(110), uint8(1), uint64(8193))
	f.Add(uint8(16), uint8(2), uint64(63))
	f.Add(uint8(17), uint8(3), uint64(1)<<61)
	f.Fuzz(func(t *testing.T, n, degree uint8, key uint64) {
		pool := 1 + int(n)%200
		ps, m := placementTiers(pool, 1+int(degree)%min(3, pool))
		checkPlacementAt(t, ps, m, key>>2)
	})
}

// TestAllocPendingAlignment pins the allocator's alignment rule: on a
// chunk pool wider than the stripe window a batch that fits a block but
// not the rest of the current one starts on the next block, and on a
// pool of one window keys are handed out back to back. The metadata
// tier's window is its whole pool, so its refs stay back to back on a
// pool of any width, and tree placement never moves.
func TestAllocPendingAlignment(t *testing.T) {
	const block = clientParallel * stripeRounds
	wide := NewProviderSet(allNodes(2*clientParallel), 1)
	for _, step := range []struct {
		n    int
		want ChunkKey
	}{
		{40, 1},                // the key space starts at 1: 63 keys are left of block 0
		{23, 41},               // exactly what is left
		{1, block},             // block 1, nothing to skip
		{block, 2 * block},     // a whole block never fits a started one
		{block + 1, 3 * block}, // larger than a block: back to back
		{0, 4*block + 1},       // nothing allocated, nothing skipped
		{5, 4*block + 1},
		{block - 2, 5 * block},
	} {
		if got := wide.AllocPending(step.n); got != step.want {
			t.Fatalf("wide pool: batch of %d starts at key %d, want %d", step.n, got, step.want)
		}
	}
	wm, pending := wide.PendingSnapshot()
	if want := 40 + 23 + 1 + block + block + 1 + 5 + block - 2; wm != 6*block-3 || pending.Len() != want {
		t.Fatalf("wide pool: watermark %d with %d keys pending, want %d with %d", wm, pending.Len(), 6*block-3, want)
	}

	narrow := NewProviderSet(allNodes(clientParallel), 1)
	next := ChunkKey(1)
	for _, n := range []int{40, 40, 1, block, 7} {
		if got := narrow.AllocPending(n); got != next {
			t.Fatalf("pool of one window: batch of %d starts at key %d, want %d", n, got, next)
		}
		next += ChunkKey(n)
	}

	meta := NewMetaService(allNodes(2 * clientParallel))
	ref := NodeRef(1)
	for _, n := range []int{1, 40, 1, 23, block, 1, block - 2, 1} {
		if got := meta.AllocPending(n); got != ref {
			t.Fatalf("metadata pool of two windows: batch of %d starts at ref %d, want %d", n, got, ref)
		}
		ref += NodeRef(n)
	}
	if wm, pending := meta.PendingSnapshot(); wm != ref-1 || pending.Len() != int(ref-1) {
		t.Fatalf("metadata pool: watermark %d with %d refs pending, want %d with %d", wm, pending.Len(), ref-1, ref-1)
	}
}
