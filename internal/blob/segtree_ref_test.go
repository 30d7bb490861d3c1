package blob

import "fmt"

// nodeGetter is the one-node-at-a-time read the recursive references
// below are written against (mapStore.GetNode). The product's Getter
// is batched only.
type nodeGetter interface {
	GetNode(ref NodeRef) (TreeNode, error)
}

// referenceBuildVersion is the recursive, one-GetNode-at-a-time
// statement of what BuildVersion computes: refs allocated in pre-order,
// created nodes listed in post-order, old nodes read only on dirty
// paths. It was the product builder until the level-order one replaced
// it; FuzzBuildVersion and the tests below hold the two to exact
// equality, refs included.
func referenceBuildVersion(g nodeGetter, oldRoot NodeRef, span int64, dirty []DirtyLeaf, alloc func() NodeRef) (NodeRef, []NewNode, error) {
	if len(dirty) == 0 {
		return oldRoot, nil, nil
	}
	if err := validateDirty(span, dirty); err != nil {
		return 0, nil, err
	}
	var created []NewNode
	// rebuild returns the ref of the subtree for [nlo,nhi) in the new
	// version, given the dirty leaves d falling in that range.
	var rebuild func(oldRef NodeRef, nlo, nhi int64, d []DirtyLeaf) (NodeRef, error)
	rebuild = func(oldRef NodeRef, nlo, nhi int64, d []DirtyLeaf) (NodeRef, error) {
		if len(d) == 0 {
			return oldRef, nil // share the old subtree unchanged
		}
		ref := alloc()
		if nhi-nlo == 1 {
			created = append(created, NewNode{Ref: ref, Node: TreeNode{Lo: nlo, Hi: nhi, Chunk: d[0].Chunk}})
			return ref, nil
		}
		mid := (nlo + nhi) / 2
		var oldLeft, oldRight NodeRef
		if oldRef != 0 {
			old, err := g.GetNode(oldRef)
			if err != nil {
				return 0, err
			}
			if old.Leaf() {
				return 0, fmt.Errorf("blob: leaf %d at inner range [%d,%d): %w", oldRef, nlo, nhi, ErrCorruptTree)
			}
			oldLeft, oldRight = old.Left, old.Right
		}
		split := 0
		for split < len(d) && d[split].Index < mid {
			split++
		}
		left, err := rebuild(oldLeft, nlo, mid, d[:split])
		if err != nil {
			return 0, err
		}
		right, err := rebuild(oldRight, mid, nhi, d[split:])
		if err != nil {
			return 0, err
		}
		created = append(created, NewNode{Ref: ref, Node: TreeNode{Lo: nlo, Hi: nhi, Left: left, Right: right}})
		return ref, nil
	}
	root, err := rebuild(oldRoot, 0, span, dirty)
	if err != nil {
		return 0, nil, err
	}
	return root, created, nil
}

// referenceWalkReachable is the recursive, one-GetNode-per-node
// statement of what WalkReachable computes for one root: depth-first,
// visitNode asked before a ref is fetched (false prunes the subtree),
// ranges validated on the way. It was the product walker until the
// level-order multi-root one replaced it; FuzzBuildVersion holds the
// two to the same entered-node and chunk sets.
func referenceWalkReachable(g nodeGetter, root NodeRef, span int64, visitNode func(NodeRef) bool, visitChunk func(ChunkKey)) error {
	var walk func(ref NodeRef, nlo, nhi int64) error
	walk = func(ref NodeRef, nlo, nhi int64) error {
		if ref == 0 {
			return nil
		}
		if !visitNode(ref) {
			return nil
		}
		n, err := g.GetNode(ref)
		if err != nil {
			return err
		}
		if n.Lo != nlo || n.Hi != nhi {
			return fmt.Errorf("blob: node %d covers [%d,%d), expected [%d,%d): %w", ref, n.Lo, n.Hi, nlo, nhi, ErrCorruptTree)
		}
		if n.Leaf() {
			if n.Chunk != 0 {
				visitChunk(n.Chunk)
			}
			return nil
		}
		mid := (nlo + nhi) / 2
		if err := walk(n.Left, nlo, mid); err != nil {
			return err
		}
		return walk(n.Right, mid, nhi)
	}
	return walk(root, 0, span)
}
