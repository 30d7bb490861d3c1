package blob

import (
	"fmt"
	"math/bits"
)

// This file holds the pure segment-tree algorithms: collecting the
// leaves that cover a chunk range, building the O(D·log C) new nodes
// of a shadowed version, and walking everything a set of roots
// reaches. They are pure so that property-based tests can drive them
// against a flat reference model without any fabric; the client wires
// them to the distributed metadata store.

// Getter resolves metadata node references, a whole round at a time:
// every algorithm here descends level by level and fetches a level in
// one GetNodes call — depth rounds of metadata access instead of one
// round trip per node. GetNodes fills out, which the caller sizes to
// len(refs) and may reuse from level to level (out[i] resolves
// refs[i]). Implementations fetch remotely (MetaService.Getter) or from
// a local map (tests).
type Getter interface {
	GetNodes(refs []NodeRef, out []TreeNode) error
}

// LeafEntry is one chunk index of a tree's leaf level and the key of
// its chunk, 0 when the index is sparse.
type LeafEntry struct {
	Index int64
	Chunk ChunkKey // 0 = sparse
}

// treeFrame is a node awaiting its fetch: ref, expected to cover
// chunk indices [nlo,nhi).
type treeFrame struct {
	ref      NodeRef
	nlo, nhi int64
}

// descend is the one top-down tree walk CollectLeaves and
// WalkReachable share: a level-order frontier descent from roots in
// which every node of one tree level is resolved in a single GetNodes
// round — so a walk costs depth rounds of metadata access instead of
// one round trip per node, which is what keeps the distributed
// metadata scheme off the critical path under concurrent deployment.
// admit is asked before a non-sparse ref (roots included) joins the
// frontier; a frame it rejects is never fetched, nor anything below
// it. visit receives every fetched node, left to right within a level,
// after its range was checked against its position: a tree whose nodes
// disagree with where they hang fails with ErrCorruptTree rather than
// yielding a wrong answer. width, if known, is the most frames a level
// can hold: the buffers then grow in few exact steps, never past it nor
// far ahead of the level at hand (appending doubled what they cost).
func descend(g Getter, roots []treeFrame, width int, admit func(treeFrame) bool, visit func(NodeRef, TreeNode)) error {
	push := func(fs []treeFrame, fr treeFrame) []treeFrame {
		if fr.ref == 0 || !admit(fr) {
			return fs
		}
		return append(fs, fr)
	}
	frontier := make([]treeFrame, 0, 2)
	for _, fr := range roots {
		frontier = push(frontier, fr)
	}
	var next []treeFrame
	var refs []NodeRef
	var nodes []TreeNode
	for len(frontier) > 0 {
		if n := len(frontier); cap(refs) < n {
			c := min(4*n, max(n, width))
			refs, nodes = make([]NodeRef, 0, c), make([]TreeNode, c)
		}
		refs = refs[:0]
		for _, fr := range frontier {
			refs = append(refs, fr.ref)
		}
		nodes = nodes[:len(refs)]
		if err := g.GetNodes(refs, nodes); err != nil {
			return err
		}
		next = next[:0]
		room := min(2*len(frontier), width)
		for fi, fr := range frontier {
			n := nodes[fi]
			if n.Lo != fr.nlo || n.Hi != fr.nhi {
				return fmt.Errorf("blob: node %d covers [%d,%d), expected [%d,%d): %w", fr.ref, n.Lo, n.Hi, fr.nlo, fr.nhi, ErrCorruptTree)
			}
			visit(fr.ref, n)
			if n.Leaf() {
				continue
			}
			if cap(next) < room {
				next = make([]treeFrame, 0, room)
			}
			mid := (fr.nlo + fr.nhi) / 2
			next = push(next, treeFrame{n.Left, fr.nlo, mid})
			next = push(next, treeFrame{n.Right, mid, fr.nhi})
		}
		frontier, next = next, frontier
	}
	return nil
}

// CollectLeaves walks the tree under root and returns one entry per
// chunk index in [lo,hi), in index order. Sparse subtrees (ref 0)
// produce entries with Chunk 0. The root covering span [0,span) may
// itself be 0 for a completely empty tree. Only nodes overlapping
// [lo,hi) are fetched (see descend for the walk and its cost), so an
// empty range fetches nothing, not even the root.
func CollectLeaves(g Getter, root NodeRef, span, lo, hi int64) ([]LeafEntry, error) {
	if lo < 0 || hi > span || lo > hi {
		return nil, fmt.Errorf("blob: leaf range [%d,%d) outside span %d: %w", lo, hi, span, ErrOutOfRange)
	}
	if lo == hi {
		return []LeafEntry{}, nil
	}
	// Every index in [lo,hi) is covered exactly once (by a leaf or by a
	// sparse subtree), so the result is preallocated from span math and
	// entries are placed at Index-lo. Sparse indices, and those of
	// subtrees outside the range, keep Chunk 0.
	out := make([]LeafEntry, hi-lo)
	for i := range out {
		out[i].Index = lo + int64(i)
	}
	err := descend(g, []treeFrame{{root, 0, span}}, int(hi-lo),
		func(fr treeFrame) bool { return fr.nhi > lo && fr.nlo < hi },
		func(_ NodeRef, n TreeNode) {
			if n.Leaf() {
				out[n.Lo-lo].Chunk = n.Chunk
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DirtyLeaf names a chunk index to be replaced in a new version.
type DirtyLeaf struct {
	Index int64
	Chunk ChunkKey
}

// NewNode is a freshly built tree node awaiting storage.
type NewNode struct {
	Ref  NodeRef
	Node TreeNode
}

// BuildVersion constructs the metadata of a shadowed snapshot: a new
// tree that references the chunks in `dirty` at their indices and
// shares every other subtree with the tree under oldRoot. Only the
// nodes on root-to-leaf paths that contain a dirty index are created;
// this is the mechanism of Fig. 3(c) in the paper.
//
// alloc(n) must return the first of n fresh consecutive refs; it is
// called once per build, with the number of nodes the build creates,
// between the two passes below. The returned slice lists every created
// node (the last entry is the new root). dirty must be sorted by index,
// without duplicates, all within [0,span).
//
// Two passes. discover walks the old tree top-down, one GetNodes round
// per level — the write-side twin of CollectLeaves' frontier descent,
// depth rounds of metadata access instead of one round trip per shared
// inner node — and records every position whose range holds a dirty
// index as a frame: one created node each. emit then runs in memory
// over the frames, numbering the allocated refs in pre-order and
// listing created nodes in post-order. That order is part of the
// contract: refs map to metadata providers by ref % providers, so
// another order would move every stored tree. referenceBuildVersion (segtree_ref_test.go) states the
// same result recursively; FuzzBuildVersion holds the two equal.
func BuildVersion(g Getter, oldRoot NodeRef, span int64, dirty []DirtyLeaf, alloc func(n int) NodeRef) (NodeRef, []NewNode, error) {
	if len(dirty) == 0 {
		return oldRoot, nil, nil
	}
	if err := validateDirty(span, dirty); err != nil {
		return 0, nil, err
	}
	b := versionBuild{dirty: dirty}
	if err := b.discover(g, oldRoot, span); err != nil {
		return 0, nil, err
	}
	b.next = alloc(len(b.frames))
	b.created = make([]NewNode, 0, len(b.frames))
	root := b.emit(0)
	return root, b.created, nil
}

// buildFrame is one position of the new tree: a range that holds at
// least one dirty index. Frame 0 is the root, so 0 in lf/rf means the
// side is clean and left/right hold the old child it shares.
type buildFrame struct {
	nlo, nhi    int64
	dlo, dhi    int32   // dirty[dlo:dhi] falls in [nlo,nhi)
	left, right NodeRef // old children; before its level is walked, left is the frame's own old subtree
	lf, rf      int32   // frames of the dirty sides
}

type versionBuild struct {
	dirty   []DirtyLeaf
	next    NodeRef // the ref emit hands out next
	frames  []buildFrame
	created []NewNode
}

// pathNodes bounds the nodes on k distinct root-to-leaf paths of a
// tree over span leaves: level l holds at most 2^l of them and no
// level more than k.
func pathNodes(span int64, k int) int {
	depth := bits.Len64(uint64(span - 1))
	top := min(bits.Len(uint(k-1)), depth) // levels narrower than k
	return k*(depth-top+1) + (1<<top - 1)
}

// discover is the top-down pass. The frames of one level are
// contiguous in b.frames, so the level being walked is frames[lo:hi]
// and the children it appends are the next one.
func (b *versionBuild) discover(g Getter, oldRoot NodeRef, span int64) error {
	k := len(b.dirty)
	b.frames = make([]buildFrame, 1, pathNodes(span, k))
	b.frames[0] = buildFrame{nlo: 0, nhi: span, dhi: int32(k), left: oldRoot}
	// One ref list and one result buffer serve every level: no level
	// holds more than k frames.
	refs := make([]NodeRef, 0, k)
	nodes := make([]TreeNode, k)
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(b.frames) {
		refs = refs[:0]
		for _, fr := range b.frames[lo:hi] {
			if fr.nhi-fr.nlo > 1 && fr.left != 0 {
				refs = append(refs, fr.left)
			}
		}
		if len(refs) > 0 {
			if err := g.GetNodes(refs, nodes[:len(refs)]); err != nil {
				return err
			}
		}
		fetched := 0
		for i := lo; i < hi; i++ {
			fr := b.frames[i]
			if fr.nhi-fr.nlo == 1 {
				continue
			}
			var oldLeft, oldRight NodeRef
			if fr.left != 0 {
				old := nodes[fetched]
				fetched++
				if old.Leaf() {
					return fmt.Errorf("blob: leaf %d at inner range [%d,%d): %w", fr.left, fr.nlo, fr.nhi, ErrCorruptTree)
				}
				oldLeft, oldRight = old.Left, old.Right
			}
			mid := (fr.nlo + fr.nhi) / 2
			split := fr.dlo
			for split < fr.dhi && b.dirty[split].Index < mid {
				split++
			}
			fr.left, fr.right = oldLeft, oldRight
			if split > fr.dlo {
				fr.lf = int32(len(b.frames))
				b.frames = append(b.frames, buildFrame{nlo: fr.nlo, nhi: mid, dlo: fr.dlo, dhi: split, left: oldLeft})
			}
			if split < fr.dhi {
				fr.rf = int32(len(b.frames))
				b.frames = append(b.frames, buildFrame{nlo: mid, nhi: fr.nhi, dlo: split, dhi: fr.dhi, left: oldRight})
			}
			b.frames[i] = fr
		}
	}
	return nil
}

// emit is the in-memory pass: it returns the ref of frame fi's subtree
// in the new version, numbering refs on the way down and listing
// created nodes on the way up.
func (b *versionBuild) emit(fi int32) NodeRef {
	fr := &b.frames[fi]
	ref := b.next
	b.next++
	if fr.nhi-fr.nlo == 1 {
		b.created = append(b.created, NewNode{Ref: ref, Node: TreeNode{Lo: fr.nlo, Hi: fr.nhi, Chunk: b.dirty[fr.dlo].Chunk}})
		return ref
	}
	left, right := fr.left, fr.right
	if fr.lf != 0 {
		left = b.emit(fr.lf)
	}
	if fr.rf != 0 {
		right = b.emit(fr.rf)
	}
	b.created = append(b.created, NewNode{Ref: ref, Node: TreeNode{Lo: fr.nlo, Hi: fr.nhi, Left: left, Right: right}})
	return ref
}

// validateDirty checks the BuildVersion precondition: every dirty index
// within [0,span), sorted, no duplicates.
func validateDirty(span int64, dirty []DirtyLeaf) error {
	for i, d := range dirty {
		if d.Index < 0 || d.Index >= span {
			return fmt.Errorf("blob: dirty index %d outside span %d: %w", d.Index, span, ErrOutOfRange)
		}
		if i > 0 && dirty[i-1].Index >= d.Index {
			return fmt.Errorf("blob: dirty indices not sorted/unique at %d: %w", i, ErrInvalidWrite)
		}
	}
	return nil
}

// CloneRoot builds the single new node that makes blob B version 1 an
// alias of blob A's snapshot under srcRoot — Fig. 3(b) of the paper.
// For a leaf-rooted (single chunk) tree the clone shares the chunk key.
// alloc is BuildVersion's: CloneRoot calls alloc(1) once, after reading
// the source root.
func CloneRoot(g Getter, srcRoot NodeRef, span int64, alloc func(n int) NodeRef) (NodeRef, []NewNode, error) {
	if srcRoot == 0 {
		return 0, nil, nil // cloning an empty tree is an empty tree
	}
	// A one-ref round; request and reply share one allocation.
	var round struct {
		ref  [1]NodeRef
		node [1]TreeNode
	}
	round.ref[0] = srcRoot
	if err := g.GetNodes(round.ref[:], round.node[:]); err != nil {
		return 0, nil, err
	}
	src := round.node[0]
	if src.Lo != 0 || src.Hi != span {
		return 0, nil, fmt.Errorf("blob: clone source root covers [%d,%d), want [0,%d): %w", src.Lo, src.Hi, span, ErrCorruptTree)
	}
	ref := alloc(1)
	n := TreeNode{Lo: 0, Hi: span, Left: src.Left, Right: src.Right, Chunk: src.Chunk}
	return ref, []NewNode{{Ref: ref, Node: n}}, nil
}

// WalkReachable visits every tree node and chunk key reachable from
// roots — the mark primitive of the snapshot garbage collector and of
// sync's delta export. All the roots descend as one frontier (see
// descend): the nodes of one tree level, whichever root they hang
// from, are resolved in a single GetNodes round, so marking any number
// of versions costs the deepest tree's depth in rounds.
//
// enter is asked before a ref is fetched and returns false to prune
// it — the caller has seen the ref before, reached from another
// version's tree or from an earlier walk (shadowing and cloning share
// whole subtrees, so a mark over many roots fetches each node once).
// visit, if not nil, receives every fetched node; chunk, if not nil,
// every non-sparse leaf's key. Sparse subtrees (ref 0) are skipped.
func WalkReachable(g Getter, roots []LiveRoot, enter func(NodeRef) bool, visit func(NodeRef, TreeNode), chunk func(ChunkKey)) error {
	frames := make([]treeFrame, len(roots))
	for i, r := range roots {
		frames[i] = treeFrame{r.Root, 0, r.Span}
	}
	return descend(g, frames, 0,
		func(fr treeFrame) bool { return enter(fr.ref) },
		func(ref NodeRef, n TreeNode) {
			if visit != nil {
				visit(ref, n)
			}
			if chunk != nil && n.Leaf() && n.Chunk != 0 {
				chunk(n.Chunk)
			}
		})
}
