package blob

import (
	"testing"
	"testing/quick"
)

// mapStore is an in-memory Getter plus allocator for pure tree tests.
// GetNode is the one-node-at-a-time read the recursive references in
// segtree_ref_test.go are written against; the product algorithms only
// see GetNodes.
type mapStore struct {
	nodes map[NodeRef]TreeNode
	next  NodeRef
}

func newMapStore() *mapStore {
	return &mapStore{nodes: make(map[NodeRef]TreeNode)}
}

func (m *mapStore) GetNode(ref NodeRef) (TreeNode, error) {
	n, ok := m.nodes[ref]
	if !ok {
		return TreeNode{}, notFound("node", ref)
	}
	return n, nil
}

func (m *mapStore) GetNodes(refs []NodeRef, out []TreeNode) error {
	for i, ref := range refs {
		n, err := m.GetNode(ref)
		if err != nil {
			return err
		}
		out[i] = n
	}
	return nil
}

// getNode reads one node through a Getter: a one-ref round.
func getNode(g Getter, ref NodeRef) (TreeNode, error) {
	var out [1]TreeNode
	err := g.GetNodes([]NodeRef{ref}, out[:])
	return out[0], err
}

func (m *mapStore) alloc() NodeRef {
	m.next++
	return m.next
}

// allocN is BuildVersion's allocator: the first of n consecutive refs.
// The recursive references allocate one ref at a time (alloc), so a
// build that equals its reference proves the one-call allocation
// yields the same refs.
func (m *mapStore) allocN(n int) NodeRef {
	first := m.next + 1
	m.next += NodeRef(n)
	return first
}

func (m *mapStore) commit(nodes []NewNode) {
	for _, nn := range nodes {
		m.nodes[nn.Ref] = nn.Node
	}
}

// buildFull creates a version with every chunk in [0,chunks) set to the
// given distinct keys and returns its root.
func buildFull(t *testing.T, m *mapStore, span int64, keys []ChunkKey) NodeRef {
	t.Helper()
	dirty := make([]DirtyLeaf, len(keys))
	for i, k := range keys {
		dirty[i] = DirtyLeaf{Index: int64(i), Chunk: k}
	}
	root, created, err := BuildVersion(m.batch(), 0, span, dirty, m.allocN)
	if err != nil {
		t.Fatalf("BuildVersion: %v", err)
	}
	m.commit(created)
	return root
}

func leavesOf(t *testing.T, m *mapStore, root NodeRef, span, lo, hi int64) []LeafEntry {
	t.Helper()
	ls, err := CollectLeaves(m, root, span, lo, hi)
	if err != nil {
		t.Fatalf("CollectLeaves: %v", err)
	}
	return ls
}

func TestSpan2(t *testing.T) {
	cases := map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 8192: 8192}
	for in, want := range cases {
		if got := span2(in); got != want {
			t.Errorf("span2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBuildAndCollectFullTree(t *testing.T) {
	m := newMapStore()
	keys := []ChunkKey{101, 102, 103, 104}
	root := buildFull(t, m, 4, keys)
	ls := leavesOf(t, m, root, 4, 0, 4)
	if len(ls) != 4 {
		t.Fatalf("got %d leaves, want 4", len(ls))
	}
	for i, lf := range ls {
		if lf.Index != int64(i) || lf.Chunk != keys[i] {
			t.Fatalf("leaf %d = %+v, want index %d chunk %d", i, lf, i, keys[i])
		}
	}
	// A full binary tree over 4 leaves has 7 nodes.
	if len(m.nodes) != 7 {
		t.Fatalf("node count = %d, want 7", len(m.nodes))
	}
}

func TestCollectSubrangeAndSparse(t *testing.T) {
	m := newMapStore()
	// Only chunk 2 written in a span of 8.
	root, created, err := BuildVersion(m.batch(), 0, 8, []DirtyLeaf{{Index: 2, Chunk: 42}}, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	// Dirty path only: depth log2(8)+1 = 4 nodes.
	if len(created) != 4 {
		t.Fatalf("created %d nodes, want 4 (single root-leaf path)", len(created))
	}
	ls := leavesOf(t, m, root, 8, 0, 8)
	for _, lf := range ls {
		want := ChunkKey(0)
		if lf.Index == 2 {
			want = 42
		}
		if lf.Chunk != want {
			t.Fatalf("leaf %d chunk = %d, want %d", lf.Index, lf.Chunk, want)
		}
	}
	// Subrange queries return exactly the requested window.
	ls = leavesOf(t, m, root, 8, 3, 6)
	if len(ls) != 3 || ls[0].Index != 3 || ls[2].Index != 5 {
		t.Fatalf("subrange leaves = %+v, want indices 3..5", ls)
	}
}

func TestCollectLeavesEmptyTree(t *testing.T) {
	m := newMapStore()
	ls := leavesOf(t, m, 0, 16, 4, 8)
	if len(ls) != 4 {
		t.Fatalf("got %d leaves, want 4 sparse entries", len(ls))
	}
	for _, lf := range ls {
		if lf.Chunk != 0 {
			t.Fatalf("empty tree leaf %d has chunk %d", lf.Index, lf.Chunk)
		}
	}
}

// failingGetter fails every round it is asked for.
type failingGetter struct{}

func (failingGetter) GetNodes([]NodeRef, []TreeNode) error { return ErrNotFound }

// TestCollectLeavesEmptyRangeFetchesNothing: an empty range is resolved
// without a round, not even for the root, so a getter that fails every
// call still yields an empty result.
func TestCollectLeavesEmptyRangeFetchesNothing(t *testing.T) {
	const span = 8
	for _, at := range []int64{0, 3, span} {
		ls, err := CollectLeaves(failingGetter{}, 1, span, at, at)
		if err != nil || len(ls) != 0 {
			t.Errorf("empty range at %d = (%+v, %v), want no leaves and no error", at, ls, err)
		}
	}
}

func TestCollectLeavesRangeValidation(t *testing.T) {
	m := newMapStore()
	if _, err := CollectLeaves(m, 0, 8, -1, 4); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := CollectLeaves(m, 0, 8, 0, 9); err == nil {
		t.Error("hi beyond span accepted")
	}
	if _, err := CollectLeaves(m, 0, 8, 5, 4); err == nil {
		t.Error("lo > hi accepted")
	}
}

func TestBuildVersionValidation(t *testing.T) {
	m := newMapStore()
	if _, _, err := BuildVersion(m.batch(), 0, 4, []DirtyLeaf{{Index: 4, Chunk: 1}}, m.allocN); err == nil {
		t.Error("out-of-span dirty index accepted")
	}
	if _, _, err := BuildVersion(m.batch(), 0, 4, []DirtyLeaf{{Index: 1, Chunk: 1}, {Index: 1, Chunk: 2}}, m.allocN); err == nil {
		t.Error("duplicate dirty index accepted")
	}
	if _, _, err := BuildVersion(m.batch(), 0, 4, []DirtyLeaf{{Index: 2, Chunk: 1}, {Index: 1, Chunk: 2}}, m.allocN); err == nil {
		t.Error("unsorted dirty indices accepted")
	}
	root, created, err := BuildVersion(m.batch(), 77, 4, nil, m.allocN)
	if err != nil || root != 77 || created != nil {
		t.Errorf("empty dirty set: got (%d,%v,%v), want (77,nil,nil)", root, created, err)
	}
}

// TestFig3Shadowing reproduces Fig. 3(c): committing chunk C2' on a
// 4-chunk image creates exactly the 3 nodes of one root-leaf path, and
// the (2,4) subtree is shared with the previous version.
func TestFig3Shadowing(t *testing.T) {
	m := newMapStore()
	rootA := buildFull(t, m, 4, []ChunkKey{1, 2, 3, 4})
	before := len(m.nodes)

	rootA2, created, err := BuildVersion(m.batch(), rootA, 4, []DirtyLeaf{{Index: 1, Chunk: 22}}, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	if len(created) != 3 {
		t.Fatalf("created %d nodes, want 3 (root + inner + leaf)", len(created))
	}
	if len(m.nodes) != before+3 {
		t.Fatalf("store grew by %d, want 3", len(m.nodes)-before)
	}
	// The new root's right child must be the old root's right child.
	oldRoot, _ := m.GetNode(rootA)
	newRoot, _ := m.GetNode(rootA2)
	if newRoot.Right != oldRoot.Right {
		t.Fatalf("right subtree not shared: old %d, new %d", oldRoot.Right, newRoot.Right)
	}
	if newRoot.Left == oldRoot.Left {
		t.Fatal("left subtree unexpectedly shared despite dirty chunk 1")
	}
	// Old version still reads its original chunks.
	for i, lf := range leavesOf(t, m, rootA, 4, 0, 4) {
		if lf.Chunk != ChunkKey(i+1) {
			t.Fatalf("old version leaf %d = %d, want %d (isolation violated)", i, lf.Chunk, i+1)
		}
	}
	// New version reads the updated chunk 1 and shares the rest.
	want := []ChunkKey{1, 22, 3, 4}
	for i, lf := range leavesOf(t, m, rootA2, 4, 0, 4) {
		if lf.Chunk != want[i] {
			t.Fatalf("new version leaf %d = %d, want %d", i, lf.Chunk, want[i])
		}
	}
}

// TestFig3Clone reproduces Fig. 3(b): cloning creates exactly one new
// node whose children are shared with the source snapshot.
func TestFig3Clone(t *testing.T) {
	m := newMapStore()
	rootA := buildFull(t, m, 4, []ChunkKey{1, 2, 3, 4})
	before := len(m.nodes)

	rootB, created, err := CloneRoot(m, rootA, 4, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	if len(created) != 1 || len(m.nodes) != before+1 {
		t.Fatalf("clone created %d nodes, want exactly 1", len(created))
	}
	a, _ := m.GetNode(rootA)
	b, _ := m.GetNode(rootB)
	if b.Left != a.Left || b.Right != a.Right {
		t.Fatalf("clone root children (%d,%d) != source (%d,%d)", b.Left, b.Right, a.Left, a.Right)
	}
	// Clone reads identically to the source.
	la := leavesOf(t, m, rootA, 4, 0, 4)
	lb := leavesOf(t, m, rootB, 4, 0, 4)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("clone leaf %d = %+v, want %+v", i, lb[i], la[i])
		}
	}
}

func TestCloneEmptyTree(t *testing.T) {
	m := newMapStore()
	root, created, err := CloneRoot(m, 0, 8, m.allocN)
	if err != nil || root != 0 || created != nil {
		t.Fatalf("clone of empty tree: got (%d,%v,%v), want (0,nil,nil)", root, created, err)
	}
}

func TestCloneThenDivergence(t *testing.T) {
	// Fig. 3(b)+(c) combined: clone A→B, then commit twice on B; A is
	// untouched and B's second commit shares B's first commit's nodes.
	m := newMapStore()
	rootA := buildFull(t, m, 4, []ChunkKey{1, 2, 3, 4})
	rootB1, created, err := CloneRoot(m, rootA, 4, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	rootB2, created, err := BuildVersion(m.batch(), rootB1, 4, []DirtyLeaf{{Index: 1, Chunk: 22}, {Index: 2, Chunk: 33}}, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	rootB3, created, err := BuildVersion(m.batch(), rootB2, 4, []DirtyLeaf{{Index: 3, Chunk: 44}}, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(created)
	if len(created) != 3 {
		t.Fatalf("third commit created %d nodes, want 3", len(created))
	}

	check := func(root NodeRef, want []ChunkKey) {
		t.Helper()
		for i, lf := range leavesOf(t, m, root, 4, 0, 4) {
			if lf.Chunk != want[i] {
				t.Fatalf("root %d leaf %d = %d, want %d", root, i, lf.Chunk, want[i])
			}
		}
	}
	check(rootA, []ChunkKey{1, 2, 3, 4})
	check(rootB1, []ChunkKey{1, 2, 3, 4})
	check(rootB2, []ChunkKey{1, 22, 33, 4})
	check(rootB3, []ChunkKey{1, 22, 33, 44})
}

// TestTreeMatchesFlatModel drives random commit sequences against a
// flat per-version chunk map and checks that every historical version
// still reads exactly as the model says (shadowing preserves history).
func TestTreeMatchesFlatModel(t *testing.T) {
	type op struct {
		Indices []uint16
	}
	f := func(ops []op, spanPow uint8) bool {
		span := int64(1) << (spanPow%6 + 1) // 2..64
		m := newMapStore()
		var nextKey ChunkKey
		model := make([]map[int64]ChunkKey, 0) // one map per version
		roots := make([]NodeRef, 0)
		cur := map[int64]ChunkKey{}
		root := NodeRef(0)
		for _, o := range ops {
			if len(o.Indices) == 0 {
				continue
			}
			seen := map[int64]bool{}
			var dirty []DirtyLeaf
			newCur := make(map[int64]ChunkKey, len(cur))
			for k, v := range cur {
				newCur[k] = v
			}
			for _, raw := range o.Indices {
				idx := int64(raw) % span
				if seen[idx] {
					continue
				}
				seen[idx] = true
				nextKey++
				dirty = append(dirty, DirtyLeaf{Index: idx, Chunk: nextKey})
				newCur[idx] = nextKey
			}
			sortDirty(dirty)
			newRoot, created, err := BuildVersion(m.batch(), root, span, dirty, m.allocN)
			if err != nil {
				return false
			}
			m.commit(created)
			root, cur = newRoot, newCur
			roots = append(roots, root)
			model = append(model, newCur)
		}
		// Every version must match its model snapshot.
		for v := range roots {
			ls, err := CollectLeaves(m, roots[v], span, 0, span)
			if err != nil {
				return false
			}
			for _, lf := range ls {
				if lf.Chunk != model[v][lf.Index] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sortDirty(d []DirtyLeaf) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j-1].Index > d[j].Index; j-- {
			d[j-1], d[j] = d[j], d[j-1]
		}
	}
}

// TestMetadataSharingIsLogarithmic checks the core scaling claim: a
// single-chunk commit on a large image creates O(log chunks) metadata,
// not O(chunks).
func TestMetadataSharingIsLogarithmic(t *testing.T) {
	m := newMapStore()
	const span = 8192 // 2 GB / 256 KB
	keys := make([]ChunkKey, span)
	for i := range keys {
		keys[i] = ChunkKey(i + 1)
	}
	root := buildFull(t, m, span, keys)
	_, created, err := BuildVersion(m.batch(), root, span, []DirtyLeaf{{Index: 4096, Chunk: 99999}}, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 14 { // log2(8192)+1 path nodes
		t.Fatalf("single-chunk commit created %d nodes, want 14", len(created))
	}
}

// TestBuildVersionRoundsAndReference: a 64-chunk commit on a 2 GiB
// image (8192 leaves, depth 13) reads the old tree in at most one
// GetNodes round per inner level, sizes
// its frame list within the bound it reserves, and produces exactly the
// recursive reference's result, refs included.
func TestBuildVersionRoundsAndReference(t *testing.T) {
	m := newMapStore()
	const span, depth = 8192, 13
	keys := make([]ChunkKey, span)
	for i := range keys {
		keys[i] = ChunkKey(i + 1)
	}
	root := buildFull(t, m, span, keys)
	dirty := make([]DirtyLeaf, 64)
	for i := range dirty {
		// Clustered and scattered indices, sorted: 0,1,2,3, 128,129,...
		dirty[i] = DirtyLeaf{Index: int64(i/4)*128 + int64(i%4)*int64(1+i/16), Chunk: ChunkKey(100000 + i)}
	}
	next0 := m.next
	refRoot, refCreated, err := referenceBuildVersion(m, root, span, dirty, m.alloc)
	if err != nil {
		t.Fatal(err)
	}
	m.next = next0
	g := m.batch()
	gotRoot, created, err := BuildVersion(g, root, span, dirty, m.allocN)
	if err != nil {
		t.Fatal(err)
	}
	if g.rounds > depth {
		t.Errorf("%d GetNodes rounds for a depth-%d tree", g.rounds, depth)
	}
	if want := len(created) - len(dirty); g.fetched != want {
		t.Errorf("fetched %d old nodes, want the %d inner nodes on dirty paths", g.fetched, want)
	}
	if bound := pathNodes(span, len(dirty)); len(created) > bound {
		t.Errorf("created %d nodes, more than the %d pathNodes reserves", len(created), bound)
	}
	if gotRoot != refRoot || len(created) != len(refCreated) {
		t.Fatalf("root %d with %d nodes, reference root %d with %d", gotRoot, len(created), refRoot, len(refCreated))
	}
	for i := range created {
		if created[i] != refCreated[i] {
			t.Fatalf("created[%d]: %+v, reference %+v", i, created[i], refCreated[i])
		}
	}
}
