package blob

import (
	"bytes"
	"errors"
	"maps"
	"testing"
)

// Native fuzz targets for the pure segment-tree algorithms. The fuzz
// input is interpreted as a little program: the first byte picks the
// tree span, every following pair of bytes is a dirty-leaf bitmask for
// one more shadowed version built over the previous one. After every
// step the whole stack of invariants is checked against a flat
// reference model: CollectLeaves must reproduce the model exactly,
// BuildVersion must create only the nodes on dirty root-to-leaf paths,
// WalkReachable must see exactly the model's chunks, and over the whole
// forest of versions built it must agree with its recursive reference
// (checkWalkAgainstReference). CI runs a short -fuzz smoke on both
// targets; the checked-in seeds keep the interesting shapes (empty
// tree, single leaf, full span, sparse holes) in the regression corpus.

// fuzzSpan derives a power-of-two span in [1,16] from a byte.
func fuzzSpan(b byte) int64 { return int64(1) << (b % 5) }

// applyFuzzVersions replays the version program in data over a fresh
// store, validating after each step. It returns the final root, the
// flat model, and the store.
func applyFuzzVersions(t *testing.T, span int64, data []byte) (NodeRef, []ChunkKey, *mapStore) {
	t.Helper()
	m := newMapStore()
	model := make([]ChunkKey, span)
	var root NodeRef
	var roots []LiveRoot // every version built, for the forest walk
	nextKey := ChunkKey(0)
	const maxRounds = 8
	for r := 0; r+1 < len(data) && r/2 < maxRounds; r += 2 {
		mask := uint16(data[r]) | uint16(data[r+1])<<8
		var dirty []DirtyLeaf
		for i := int64(0); i < span; i++ {
			if mask&(1<<uint(i%16)) == 0 || i >= 16 {
				continue
			}
			nextKey++
			dirty = append(dirty, DirtyLeaf{Index: i, Chunk: nextKey})
		}
		// The build must equal the recursive reference exactly: same
		// root, same created nodes in the same order, same refs. The
		// reference runs first against a snapshot of the allocator
		// counter so both builds allocate from the same state.
		next0 := m.next
		refRoot, refCreated, refErr := referenceBuildVersion(m, root, span, dirty, m.alloc)
		m.next = next0
		newRoot, created, err := BuildVersion(m.batch(), root, span, dirty, m.allocN)
		if err != nil {
			t.Fatalf("BuildVersion(span=%d, %d dirty): %v", span, len(dirty), err)
		}
		if refErr != nil {
			t.Fatalf("referenceBuildVersion(span=%d, %d dirty): %v", span, len(dirty), refErr)
		}
		if newRoot != refRoot {
			t.Fatalf("root %d != reference root %d", newRoot, refRoot)
		}
		if len(created) != len(refCreated) {
			t.Fatalf("created %d nodes, reference %d", len(created), len(refCreated))
		}
		for i := range created {
			if created[i] != refCreated[i] {
				t.Fatalf("created[%d]: %+v, reference %+v", i, created[i], refCreated[i])
			}
		}
		if len(dirty) == 0 {
			if newRoot != root || len(created) != 0 {
				t.Fatalf("empty dirty set must share the old tree unchanged")
			}
			continue
		}
		if bound := pathNodes(span, len(dirty)); len(created) > bound {
			t.Fatalf("created %d nodes for %d dirty of span %d, pathNodes reserves %d", len(created), len(dirty), span, bound)
		}
		if created[len(created)-1].Ref != newRoot {
			t.Fatalf("last created node %d is not the root %d", created[len(created)-1].Ref, newRoot)
		}
		m.commit(created)
		root = newRoot
		for _, d := range dirty {
			model[d.Index] = d.Chunk
		}

		leaves, err := CollectLeaves(m, root, span, 0, span)
		if err != nil {
			t.Fatalf("CollectLeaves after build: %v", err)
		}
		if int64(len(leaves)) != span {
			t.Fatalf("CollectLeaves returned %d entries for span %d", len(leaves), span)
		}
		for _, lf := range leaves {
			if lf.Chunk != model[lf.Index] {
				t.Fatalf("index %d: key %d, model %d", lf.Index, lf.Chunk, model[lf.Index])
			}
		}
		reachable := make(map[ChunkKey]bool)
		roots = append(roots, LiveRoot{Root: root, Span: span})
		err = WalkReachable(m, roots[len(roots)-1:],
			func(NodeRef) bool { return true }, nil,
			func(key ChunkKey) { reachable[key] = true })
		if err != nil {
			t.Fatalf("WalkReachable: %v", err)
		}
		want := make(map[ChunkKey]bool)
		for _, key := range model {
			if key != 0 {
				want[key] = true
			}
		}
		if len(reachable) != len(want) {
			t.Fatalf("WalkReachable saw %d chunks, model has %d", len(reachable), len(want))
		}
		for key := range want {
			if !reachable[key] {
				t.Fatalf("model chunk %d not reached", key)
			}
		}
	}
	checkWalkAgainstReference(t, m, roots)
	return root, model, m
}

// fetchCounter is a Getter that records how often each ref is fetched.
type fetchCounter struct {
	*mapStore
	fetched map[NodeRef]int
}

func (f fetchCounter) GetNodes(refs []NodeRef, out []TreeNode) error {
	for _, ref := range refs {
		f.fetched[ref]++
	}
	return f.mapStore.GetNodes(refs, out)
}

// checkWalkAgainstReference holds WalkReachable, walking the forest of
// all version roots as one frontier, to referenceWalkReachable walking
// them one after the other over a shared seen set: same entered nodes,
// same chunks, every admitted ref fetched exactly once and nothing
// else fetched — with and without a pruned subtree — and the same
// ErrCorruptTree on a node whose range disagrees with its position.
// One more root of twice the span hangs the newest version under its
// left side, so roots of different spans share a whole tree.
func checkWalkAgainstReference(t *testing.T, m *mapStore, roots []LiveRoot) {
	t.Helper()
	if len(roots) == 0 {
		return
	}
	newest := roots[len(roots)-1]
	wide := m.alloc()
	m.nodes[wide] = TreeNode{Lo: 0, Hi: 2 * newest.Span, Left: newest.Root}
	defer delete(m.nodes, wide)
	roots = append([]LiveRoot{{Root: wide, Span: 2 * newest.Span}}, roots...)

	type marks struct {
		nodes  map[NodeRef]bool
		chunks map[ChunkKey]bool
	}
	enterInto := func(mk marks, pruned NodeRef, admitted map[NodeRef]int) func(NodeRef) bool {
		return func(ref NodeRef) bool {
			if ref == pruned || mk.nodes[ref] {
				return false
			}
			mk.nodes[ref] = true
			if admitted != nil {
				admitted[ref]++
			}
			return true
		}
	}
	reference := func(g nodeGetter, pruned NodeRef) (marks, error) {
		mk := marks{map[NodeRef]bool{}, map[ChunkKey]bool{}}
		for _, r := range roots {
			err := referenceWalkReachable(g, r.Root, r.Span, enterInto(mk, pruned, nil),
				func(key ChunkKey) { mk.chunks[key] = true })
			if err != nil {
				return mk, err
			}
		}
		return mk, nil
	}

	// The subtree to prune: the newest version's left child, when it
	// has one.
	var pruned NodeRef
	if n := m.nodes[newest.Root]; !n.Leaf() {
		pruned = n.Left
	}
	for _, prune := range []NodeRef{0, pruned} {
		want, err := reference(m, prune)
		if err != nil {
			t.Fatalf("referenceWalkReachable: %v", err)
		}
		got := marks{map[NodeRef]bool{}, map[ChunkKey]bool{}}
		fc := fetchCounter{m, map[NodeRef]int{}}
		admitted := map[NodeRef]int{}
		visited := map[NodeRef]bool{}
		err = WalkReachable(fc, roots, enterInto(got, prune, admitted),
			func(ref NodeRef, n TreeNode) {
				if n != m.nodes[ref] {
					t.Fatalf("visit(%d) got %+v, stored %+v", ref, n, m.nodes[ref])
				}
				visited[ref] = true
			},
			func(key ChunkKey) { got.chunks[key] = true })
		if err != nil {
			t.Fatalf("WalkReachable: %v", err)
		}
		if !maps.Equal(got.nodes, want.nodes) {
			t.Fatalf("prune %d: entered %d nodes, reference %d", prune, len(got.nodes), len(want.nodes))
		}
		if !maps.Equal(got.chunks, want.chunks) {
			t.Fatalf("prune %d: reached %d chunks, reference %d", prune, len(got.chunks), len(want.chunks))
		}
		if !maps.Equal(visited, got.nodes) {
			t.Fatalf("prune %d: visited %d nodes, entered %d", prune, len(visited), len(got.nodes))
		}
		for ref := range got.nodes {
			if admitted[ref] != 1 || fc.fetched[ref] != 1 {
				t.Fatalf("prune %d: ref %d admitted %d times, fetched %d times", prune, ref, admitted[ref], fc.fetched[ref])
			}
		}
		if len(fc.fetched) != len(got.nodes) {
			t.Fatalf("prune %d: fetched %d refs, entered %d (a pruned or unseen node was fetched)", prune, len(fc.fetched), len(got.nodes))
		}
	}

	// A node whose range disagrees with where it hangs: both walkers
	// must refuse the tree.
	bad := &mapStore{nodes: maps.Clone(m.nodes)}
	n := bad.nodes[newest.Root]
	n.Hi++
	bad.nodes[newest.Root] = n
	if _, err := reference(bad, 0); !errors.Is(err, ErrCorruptTree) {
		t.Fatalf("reference on a corrupt tree: %v, want ErrCorruptTree", err)
	}
	err := WalkReachable(bad, roots, func(NodeRef) bool { return true }, nil, nil)
	if !errors.Is(err, ErrCorruptTree) {
		t.Fatalf("WalkReachable on a corrupt tree: %v, want ErrCorruptTree", err)
	}
}

func FuzzBuildVersion(f *testing.F) {
	f.Add([]byte{0})                                     // span 1, no versions
	f.Add([]byte{0, 0x01, 0x00})                         // span 1, single leaf
	f.Add([]byte{4, 0xff, 0xff})                         // span 16, fully dirty
	f.Add([]byte{3, 0x05, 0x00, 0xa0, 0x00})             // span 8, sparse holes, two versions
	f.Add([]byte{2, 0x0f, 0x00, 0x03, 0x00, 0x0c, 0x00}) // span 4, three shadowed versions
	f.Add(bytes.Repeat([]byte{4, 0x11}, 8))              // span 16, alternating pattern
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		applyFuzzVersions(t, fuzzSpan(data[0]), data[1:])
	})
}

func FuzzCollectLeaves(f *testing.F) {
	f.Add([]byte{4, 0xff, 0xff}, int64(0), int64(16))
	f.Add([]byte{3, 0x12, 0x00}, int64(2), int64(7))
	f.Add([]byte{2, 0x0f, 0x00}, int64(3), int64(3))  // empty range
	f.Add([]byte{1, 0x03, 0x00}, int64(-1), int64(2)) // invalid: lo < 0
	f.Add([]byte{0, 0x01, 0x00}, int64(0), int64(9))  // invalid: hi > span
	f.Add([]byte{4, 0x00, 0x00}, int64(5), int64(1))  // invalid: lo > hi
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		if len(data) == 0 {
			return
		}
		span := fuzzSpan(data[0])
		root, model, m := applyFuzzVersions(t, span, data[1:])
		leaves, err := CollectLeaves(m, root, span, lo, hi)
		if lo < 0 || hi > span || lo > hi {
			if err == nil {
				t.Fatalf("CollectLeaves accepted invalid range [%d,%d) over span %d", lo, hi, span)
			}
			return
		}
		if err != nil {
			t.Fatalf("CollectLeaves([%d,%d)): %v", lo, hi, err)
		}
		if int64(len(leaves)) != hi-lo {
			t.Fatalf("got %d entries for range [%d,%d)", len(leaves), lo, hi)
		}
		for i, lf := range leaves {
			if lf.Index != lo+int64(i) {
				t.Fatalf("entry %d has index %d, want %d (in order)", i, lf.Index, lo+int64(i))
			}
			if lf.Chunk != model[lf.Index] {
				t.Fatalf("index %d: key %d, model %d", lf.Index, lf.Chunk, model[lf.Index])
			}
		}
	})
}
