package blob

// ID identifies a blob (a virtual machine image lineage).
type ID int32

// Version is a 1-based snapshot number within a blob; 0 is invalid.
type Version int32

// NodeRef identifies an immutable metadata tree node; 0 is the nil ref.
type NodeRef uint64

// ChunkKey identifies a stored chunk; 0 means "no data" (reads as zeros).
type ChunkKey uint64

// Payload is chunk content. Data may be nil, in which case the chunk is
// synthetic: it has the declared size for costing purposes and carries
// only an identity tag. The large-scale experiments run with synthetic
// payloads (moving 110 instances × 2 GB of real bytes would measure the
// host, not the model); unit tests run with real bytes.
type Payload struct {
	Size int32
	Data []byte
	Tag  uint64
}

// Real reports whether the payload carries actual bytes.
func (p Payload) Real() bool { return p.Data != nil }

// CopyTo fills dst with the payload's bytes from offset at on, and
// with zeros where it has none: past the end of a payload shorter than
// its chunk, and everywhere for a synthetic one.
func (p Payload) CopyTo(dst []byte, at int64) {
	n := 0
	if at < int64(len(p.Data)) {
		n = copy(dst, p.Data[at:])
	}
	clear(dst[n:])
}

// RealPayload wraps bytes as a payload.
func RealPayload(data []byte) Payload {
	return Payload{Size: int32(len(data)), Data: data}
}

// SyntheticPayload describes a chunk of the given size without bytes.
func SyntheticPayload(size int32, tag uint64) Payload {
	return Payload{Size: size, Tag: tag}
}

// TreeNode is one immutable node of a version's segment tree. A node
// covers the chunk-index range [Lo,Hi). Leaves (Hi-Lo == 1) carry the
// chunk key; inner nodes reference children that may belong to older
// versions of the same blob or, after CLONE, to a different blob.
type TreeNode struct {
	Lo, Hi      int64
	Left, Right NodeRef  // inner nodes; 0 = fully sparse subtree
	Chunk       ChunkKey // leaves; 0 = sparse (zeros)
}

// Leaf reports whether the node is a leaf.
func (n TreeNode) Leaf() bool { return n.Hi-n.Lo == 1 }

// valid reports whether the node covers a non-empty range. Every
// stored node does; the zero TreeNode (e.g. a ref a batch fetch could
// not resolve) does not.
func (n TreeNode) valid() bool { return n.Hi > n.Lo }

// TreeNodeWire is the modeled on-wire size of a metadata node in bytes,
// used for RPC costing and by sync to price shipped tree nodes.
const TreeNodeWire = 64

// Info describes a blob as registered with the version manager.
type Info struct {
	ID        ID
	Size      int64 // logical size in bytes
	ChunkSize int   // stripe unit in bytes
	Span      int64 // padded power-of-two chunk count covered by trees
}

// Chunks returns the number of chunks the blob's size occupies.
func (inf Info) Chunks() int64 {
	return (inf.Size + int64(inf.ChunkSize) - 1) / int64(inf.ChunkSize)
}

// ChunkLen returns the length of chunk ci < Chunks(): the chunk size,
// or less for a last chunk the blob's size cuts short.
func (inf Info) ChunkLen(ci int64) int32 {
	cs := int64(inf.ChunkSize)
	return int32(min(cs, inf.Size-ci*cs))
}

// span2 returns the smallest power of two ≥ n (and ≥ 1).
func span2(n int64) int64 {
	s := int64(1)
	for s < n {
		s <<= 1
	}
	return s
}
