package blob

import "fmt"

// referenceBuildVersion is the recursive, one-GetNode-at-a-time
// statement of what BuildVersion computes: refs allocated in pre-order,
// created nodes listed in post-order, old nodes read only on dirty
// paths. It was the product builder until the level-order one replaced
// it; FuzzBuildVersion and the tests below hold the two to exact
// equality, refs included.
func referenceBuildVersion(g Getter, oldRoot NodeRef, span int64, dirty []DirtyLeaf, alloc func() NodeRef) (NodeRef, []NewNode, error) {
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
