package sync

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"blobvfs/internal/blob"
)

// The archive wire format (version 2), little-endian throughout:
//
//	magic          8 bytes "BVFSYNC1"
//	header         formatVersion u32, sourceUUID u64, image i32,
//	               from i32, to i32, seq u64, chunkSize i32,
//	               imageSize i64, span i64, headerSum u64
//	section ×3     kind u32, length u64, body, bodySum u64
//	               (kinds in strict order: versions, nodes, chunks)
//	trailer        archiveSum u64
//
// Every checksum is CRC-32C (Castagnoli), zero-extended into its u64
// field: headerSum covers magic through span, each bodySum covers its
// section body, each chunk record's digest covers its payload, and
// archiveSum covers every byte before the trailer — so a flipped bit
// anywhere in the stream is caught before any record is acted on.
//
// Both directions are one pass over the bytes, through one codec.
// Each record type states its layout once: a put that writes its
// fixed part, and beside it a get that reads the part back and checks
// it. writeSection and readSection carry every section's envelope,
// count, records and checksum. writeArchive writes every section record
// by record, a real chunk's payload straight from its slice, under
// running sums; Export calls it once every payload has been fetched,
// so a failed export writes nothing. DecodeArchive reads the io.Reader
// front to back, each payload directly into the slice the importer
// stores. The decoder never trusts a declared
// length before the bytes arrive: section bodies are length-prefixed,
// every count is bounded against its section length, every record
// against what is left of its section, and memory is taken in steps
// of at most slabSize as the bytes come in — so a corrupted or
// adversarial archive fails with ErrArchiveCorrupt instead of an
// over-allocation or a panic (see FuzzImportArchive).

const (
	formatVersion = 2

	sectionVersions = 1
	sectionNodes    = 2
	sectionChunks   = 3

	// maxSectionLen bounds a section body; anything larger is treated
	// as corruption before allocation, not after.
	maxSectionLen = 1 << 30

	// Fixed wire sizes: the header up to its checksum, and one record
	// of each section (a real chunk record's payload follows its
	// fixed part).
	headerLen     = 8 + 4 + 8 + 4 + 4 + 4 + 8 + 4 + 8 + 8
	versionRecLen = 4 + 1 + 8
	nodeRecLen    = 6 * 8
	chunkRecLen   = 8 + 4 + 8 + 1 + 8

	// slabSize is the most payload memory the decoder takes ahead of
	// the bytes that fill it. Chunk payloads are carved from slabs of
	// this size rather than allocated one by one: an archive costs one
	// allocation per 4 MiB, not one per chunk.
	slabSize = 4 << 20

	// recordsAhead caps the record capacity taken up front the same
	// way: a count is checked against its section's declared length,
	// not against bytes received, so a longer section grows its slice
	// as the records arrive.
	recordsAhead = 4096
)

var (
	magic      = [8]byte{'B', 'V', 'F', 'S', 'Y', 'N', 'C', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	le         = binary.LittleEndian
)

// Header is the archive's self-description: which source repository,
// which image, which version range the archive carries, and where it
// sits in the source's export sequence for that image.
type Header struct {
	SourceUUID uint64
	Image      blob.ID
	From, To   blob.Version
	Seq        uint64
	ChunkSize  int32
	ImageSize  int64
	Span       int64
}

// VersionRecord is one version of the range (From, To]. A retired
// record is a placeholder: the version was retired on the source
// before the export, its tree was not shipped, and the importer
// re-publishes and immediately retires it so version numbers stay
// aligned between the repositories.
type VersionRecord struct {
	Version blob.Version
	Retired bool
	Root    blob.NodeRef // source-side ref; 0 for retired placeholders
}

// NodeRecord is one shipped segment-tree node, under its source-side
// ref; child refs that name nodes outside the archive resolve against
// the importer's base tree.
type NodeRecord struct {
	Ref  blob.NodeRef
	Node blob.TreeNode
}

// ChunkRecord is one shipped chunk under its source-side key. Real
// payloads carry their bytes and a CRC-32C digest of them; synthetic
// payloads carry only the (size, tag) descriptor, digested in place
// of the bytes.
type ChunkRecord struct {
	Key     blob.ChunkKey
	Payload blob.Payload
	Digest  uint64
}

// Archive is a fully decoded (and checksum-verified) delta archive.
type Archive struct {
	Header   Header
	Versions []VersionRecord
	Nodes    []NodeRecord
	Chunks   []ChunkRecord
	Size     int64 // serialized length in bytes
}

// payloadDigest is the per-chunk integrity check: CRC-32C over the
// bytes for real payloads, over the (tag, size) descriptor for
// synthetic ones.
func payloadDigest(p blob.Payload) uint64 {
	if p.Real() {
		return uint64(crc32.Checksum(p.Data, castagnoli))
	}
	var buf [12]byte
	le.PutUint64(buf[0:], p.Tag)
	le.PutUint32(buf[8:], uint32(p.Size))
	return uint64(crc32.Checksum(buf[:], castagnoli))
}

// flag is a record's one-byte boolean.
func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Each record's layout is stated once per direction, side by side:
// put writes the fixed part into b, get reads it back from b and
// checks it. A get reports a bad record as ErrArchiveCorrupt under its
// index i in the section.

func (h Header) put(b []byte) {
	copy(b, magic[:])
	le.PutUint32(b[8:], formatVersion)
	le.PutUint64(b[12:], h.SourceUUID)
	le.PutUint32(b[20:], uint32(h.Image))
	le.PutUint32(b[24:], uint32(h.From))
	le.PutUint32(b[28:], uint32(h.To))
	le.PutUint64(b[32:], h.Seq)
	le.PutUint32(b[40:], uint32(h.ChunkSize))
	le.PutUint64(b[44:], uint64(h.ImageSize))
	le.PutUint64(b[52:], uint64(h.Span))
}

// get checks the magic, then the format version, so a stream of
// another version is named for what it is before its checksum is.
func (h *Header) get(b []byte) error {
	if !bytes.Equal(b[:len(magic)], magic[:]) {
		return corrupt("bad magic %q", b[:len(magic)])
	}
	if ver := le.Uint32(b[8:]); ver != formatVersion {
		return corrupt("unsupported format version %d", ver)
	}
	*h = Header{
		SourceUUID: le.Uint64(b[12:]),
		Image:      blob.ID(le.Uint32(b[20:])),
		From:       blob.Version(le.Uint32(b[24:])),
		To:         blob.Version(le.Uint32(b[28:])),
		Seq:        le.Uint64(b[32:]),
		ChunkSize:  int32(le.Uint32(b[40:])),
		ImageSize:  int64(le.Uint64(b[44:])),
		Span:       int64(le.Uint64(b[52:])),
	}
	return nil
}

func (r VersionRecord) put(b []byte) {
	le.PutUint32(b[0:], uint32(r.Version))
	b[4] = flag(r.Retired)
	le.PutUint64(b[5:], uint64(r.Root))
}

func (r *VersionRecord) get(b []byte, i int, _ *archiveReader) error {
	if b[4] > 1 {
		return corrupt("version record %d: unknown flags %#x", i, b[4])
	}
	*r = VersionRecord{
		Version: blob.Version(le.Uint32(b[0:])),
		Retired: b[4] == 1,
		Root:    blob.NodeRef(le.Uint64(b[5:])),
	}
	if r.Retired && r.Root != 0 {
		return corrupt("retired version %d carries a root", r.Version)
	}
	return nil
}

func (r NodeRecord) put(b []byte) {
	le.PutUint64(b[0:], uint64(r.Ref))
	le.PutUint64(b[8:], uint64(r.Node.Lo))
	le.PutUint64(b[16:], uint64(r.Node.Hi))
	le.PutUint64(b[24:], uint64(r.Node.Left))
	le.PutUint64(b[32:], uint64(r.Node.Right))
	le.PutUint64(b[40:], uint64(r.Node.Chunk))
}

func (r *NodeRecord) get(b []byte, i int, _ *archiveReader) error {
	n := blob.TreeNode{
		Lo: int64(le.Uint64(b[8:])), Hi: int64(le.Uint64(b[16:])),
		Left: blob.NodeRef(le.Uint64(b[24:])), Right: blob.NodeRef(le.Uint64(b[32:])),
		Chunk: blob.ChunkKey(le.Uint64(b[40:])),
	}
	*r = NodeRecord{Ref: blob.NodeRef(le.Uint64(b[0:])), Node: n}
	if r.Ref == 0 || n.Lo < 0 || n.Hi <= n.Lo {
		return corrupt("node record %d: invalid ref %d or range [%d,%d)", i, r.Ref, n.Lo, n.Hi)
	}
	if n.Leaf() && (n.Left != 0 || n.Right != 0) {
		return corrupt("node record %d: leaf with children", i)
	}
	if !n.Leaf() && n.Chunk != 0 {
		return corrupt("node record %d: inner node with chunk", i)
	}
	return nil
}

// put writes a chunk record's fixed part; a real payload's bytes
// follow it on the wire.
func (r ChunkRecord) put(b []byte) {
	le.PutUint64(b[0:], uint64(r.Key))
	le.PutUint32(b[8:], uint32(r.Payload.Size))
	le.PutUint64(b[12:], r.Payload.Tag)
	b[20] = flag(r.Payload.Real())
	le.PutUint64(b[21:], r.Digest)
}

// get reads a chunk record's fixed part, then its payload if it is
// real. A size beyond the header's chunk size, or beyond what is left
// of the section, is rejected before any memory is taken for it.
func (r *ChunkRecord) get(b []byte, i int, ar *archiveReader) error {
	size, flags := int32(le.Uint32(b[8:])), b[20]
	*r = ChunkRecord{
		Key:     blob.ChunkKey(le.Uint64(b[0:])),
		Payload: blob.Payload{Size: size, Tag: le.Uint64(b[12:])},
		Digest:  le.Uint64(b[21:]),
	}
	if flags > 1 {
		return corrupt("chunk record %d: unknown flags %#x", i, flags)
	}
	if r.Key == 0 || size < 0 || size > ar.chunkSize {
		return corrupt("chunk record %d: invalid key %d or size %d (chunk size %d)", i, r.Key, size, ar.chunkSize)
	}
	if flags == 1 {
		// The fixed parts of the records still to come are spoken for
		// (readSection checked they fit, and every payload since has
		// left them room); the rest of the section is the most payload
		// it can still hold.
		room := ar.body.N - int64(ar.left)*chunkRecLen
		if int64(size) > room {
			return corrupt("chunk record %d: payload of %d bytes, its section has room for %d", i, size, room)
		}
		var err error
		if r.Payload.Data, err = ar.payload(int(size), room); err != nil {
			return err
		}
	}
	if payloadDigest(r.Payload) != r.Digest {
		return corrupt("chunk record %d (key %d): payload digest mismatch", i, r.Key)
	}
	return nil
}

// archiveWriter sends the archive's bytes to w, keeping the running
// section and whole-archive checksums as they go out.
type archiveWriter struct {
	w    io.Writer
	arch uint32 // CRC-32C of every byte written
	sect uint32 // CRC-32C of the open section's body so far
	n    int64
	err  error
	buf  [headerLen]byte // the fixed part or field on its way out
}

// write sends raw bytes to the underlying writer and the running
// checksums; errors stick.
func (aw *archiveWriter) write(b []byte) {
	if aw.err != nil || len(b) == 0 {
		return
	}
	aw.arch = crc32.Update(aw.arch, castagnoli, b)
	aw.sect = crc32.Update(aw.sect, castagnoli, b)
	n, err := aw.w.Write(b)
	aw.n += int64(n)
	aw.err = err
}

// sum writes a u64 checksum field.
func (aw *archiveWriter) sum(s uint32) {
	le.PutUint64(aw.buf[:], uint64(s))
	aw.write(aw.buf[:8])
}

// writeSection writes one section: its envelope (kind and body
// length), then the body — the record count, and each record's fixed
// part of recLen bytes followed by its tail, if any (a real chunk's
// payload, straight from its slice) — then the body's checksum.
func writeSection[R any](aw *archiveWriter, kind uint32, recLen int, recs []R, put func(R, []byte), tail func(R) []byte) {
	length := 4 + len(recs)*recLen
	for i := 0; tail != nil && i < len(recs); i++ {
		length += len(tail(recs[i]))
	}
	le.PutUint32(aw.buf[0:], kind)
	le.PutUint64(aw.buf[4:], uint64(length))
	aw.write(aw.buf[:12])
	aw.sect = 0
	le.PutUint32(aw.buf[:], uint32(len(recs)))
	aw.write(aw.buf[:4])
	for _, r := range recs {
		put(r, aw.buf[:recLen])
		aw.write(aw.buf[:recLen])
		if tail != nil {
			aw.write(tail(r))
		}
	}
	aw.sum(aw.sect)
}

// writeArchive encodes a into w, the twin of DecodeArchive, and
// returns the bytes written. a.Size is not read.
func writeArchive(w io.Writer, a *Archive) (int64, error) {
	aw := &archiveWriter{w: w}
	a.Header.put(aw.buf[:])
	aw.write(aw.buf[:])
	// The header opens the stream, so the archive sum so far is its sum.
	aw.sum(aw.arch)
	writeSection(aw, sectionVersions, versionRecLen, a.Versions, VersionRecord.put, nil)
	writeSection(aw, sectionNodes, nodeRecLen, a.Nodes, NodeRecord.put, nil)
	writeSection(aw, sectionChunks, chunkRecLen, a.Chunks, ChunkRecord.put,
		func(r ChunkRecord) []byte { return r.Payload.Data })
	aw.sum(aw.arch)
	return aw.n, aw.err
}

// corrupt builds an ErrArchiveCorrupt with positional context.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("sync: "+format+": %w", append(args, ErrArchiveCorrupt)...)
}

// archiveReader is the decoder's view of the stream: every byte it
// hands out has gone through the running checksums, and inside a
// section it reads through body, which ends where the section's
// declared length says, so no record can reach past its section.
type archiveReader struct {
	src  io.Reader
	body io.LimitedReader // src, cut at the end of the open section's body
	arch uint32           // CRC-32C of every byte read
	sect uint32           // CRC-32C of the open section's body so far
	n    int64
	slab []byte // unused rest of the current payload slab

	chunkSize int32 // the header's: no chunk record may be larger
	left      int   // records of the open section after the one being read
	buf       [headerLen]byte
}

// read fills p from src, or from the open section's body. A stream or
// a section that ends early, and any error of the source, are
// ErrArchiveCorrupt: the archive did not arrive.
func (ar *archiveReader) read(from io.Reader, p []byte) error {
	n, err := io.ReadFull(from, p)
	ar.n += int64(n)
	if err != nil {
		return corrupt("short read at offset %d (need %d bytes, got %d: %v)", ar.n-int64(n), len(p), n, err)
	}
	ar.arch = crc32.Update(ar.arch, castagnoli, p)
	ar.sect = crc32.Update(ar.sect, castagnoli, p)
	return nil
}

// sum reads a u64 checksum field and compares it with want, the
// running sum as the caller saw it before the field itself went
// through the checksums.
func (ar *archiveReader) sum(want uint32, what string) error {
	if err := ar.read(ar.src, ar.buf[:8]); err != nil {
		return err
	}
	if le.Uint64(ar.buf[:]) != uint64(want) {
		return corrupt("%s checksum mismatch at offset %d", what, ar.n-8)
	}
	return nil
}

// header reads the header and its checksum, and checks its geometry
// before any section is read: the chunk section is bounded by it.
func (ar *archiveReader) header() (Header, error) {
	var h Header
	if err := ar.read(ar.src, ar.buf[:]); err != nil {
		return h, err
	}
	if err := h.get(ar.buf[:]); err != nil {
		return h, err
	}
	if err := ar.sum(ar.arch, "header"); err != nil {
		return h, err
	}
	ar.chunkSize = h.ChunkSize
	return h, validateHeader(h)
}

// validateHeader checks the header's internal consistency: geometry
// and version range.
func validateHeader(h Header) error {
	if h.ChunkSize <= 0 || h.ImageSize < 0 || h.From < 0 || h.To <= h.From {
		return corrupt("header geometry/range (size %d, chunk %d, range (%d,%d])",
			h.ImageSize, h.ChunkSize, h.From, h.To)
	}
	chunks := (h.ImageSize + int64(h.ChunkSize) - 1) / int64(h.ChunkSize)
	span := int64(1)
	for span < chunks {
		span <<= 1
	}
	if h.Span != span {
		return corrupt("header span %d, geometry implies %d", h.Span, span)
	}
	return nil
}

// readSection reads one section: its envelope, the record count —
// which the declared length must hold at recLen bytes a record (for a
// chunk, its fixed part) — each record's fixed part through get, and
// the end of the section. The records must use up the declared length
// exactly (which is also what makes the counts of the fixed-size
// sections exact), and the body must match its checksum.
func readSection[R any](ar *archiveReader, kind uint32, recLen int, get func(*R, []byte, int, *archiveReader) error) ([]R, error) {
	b := ar.buf[:12]
	if err := ar.read(ar.src, b); err != nil {
		return nil, err
	}
	if got := le.Uint32(b[0:]); got != kind {
		return nil, corrupt("section kind %d, expected %d", got, kind)
	}
	length := le.Uint64(b[4:])
	if length > maxSectionLen {
		return nil, corrupt("section %d length %d exceeds limit", kind, length)
	}
	ar.body.N, ar.sect = int64(length), 0
	if err := ar.read(&ar.body, b[:4]); err != nil {
		return nil, err
	}
	count := int(le.Uint32(b))
	if int64(count)*int64(recLen) > ar.body.N {
		return nil, corrupt("section %d: count %d disagrees with section length %d", kind, count, length)
	}
	recs := make([]R, 0, min(count, recordsAhead))
	var zero R
	for i := 0; i < count; i++ {
		if err := ar.read(&ar.body, ar.buf[:recLen]); err != nil {
			return nil, err
		}
		ar.left = count - i - 1
		recs = append(recs, zero)
		if err := get(&recs[i], ar.buf[:recLen], i, ar); err != nil {
			return nil, err
		}
	}
	if ar.body.N != 0 {
		return nil, corrupt("%d bytes of section %d left after its last record", ar.body.N, kind)
	}
	return recs, ar.sum(ar.sect, "section")
}

// payload reads a real payload of n bytes into memory of its own: a
// piece of the current slab, or of a fresh one sized by room, the
// payload bytes the section can still hold. Either way at most
// slabSize bytes are taken before the bytes that fill them arrive.
func (ar *archiveReader) payload(n int, room int64) ([]byte, error) {
	if n == 0 {
		// Real() is Data != nil; a zero-length real payload must keep
		// a non-nil slice through the round trip.
		return []byte{}, nil
	}
	if n > slabSize {
		// A chunk larger than a slab grows by a slab at a time.
		p := make([]byte, 0, slabSize)
		for len(p) < n {
			step := min(n-len(p), slabSize)
			p = slices.Grow(p, step)[:len(p)+step]
			if err := ar.read(&ar.body, p[len(p)-step:]); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	if n > len(ar.slab) {
		ar.slab = make([]byte, min(slabSize, room))
	}
	p := ar.slab[:n:n]
	ar.slab = ar.slab[n:]
	return p, ar.read(&ar.body, p)
}

// DecodeArchive reads and structurally validates a complete archive
// in one pass over src: magic, format version, header checksum and
// geometry, then per section its kind and order, length limit, record
// count against the length, the records (per-chunk payload digests
// included) and the section checksum, then the whole-archive checksum
// and the absence of trailing bytes. It does not touch any repository
// state — every failure is reported before an import acts on a single
// record.
func DecodeArchive(src io.Reader) (*Archive, error) {
	ar := &archiveReader{src: src, body: io.LimitedReader{R: src}}
	var a Archive
	var err error
	if a.Header, err = ar.header(); err != nil {
		return nil, err
	}
	if a.Versions, err = readSection(ar, sectionVersions, versionRecLen, (*VersionRecord).get); err != nil {
		return nil, err
	}
	if a.Nodes, err = readSection(ar, sectionNodes, nodeRecLen, (*NodeRecord).get); err != nil {
		return nil, err
	}
	if a.Chunks, err = readSection(ar, sectionChunks, chunkRecLen, (*ChunkRecord).get); err != nil {
		return nil, err
	}
	if err := ar.sum(ar.arch, "archive"); err != nil {
		return nil, err
	}
	var one [1]byte
	if n, err := io.ReadFull(src, one[:]); n > 0 || err != io.EOF {
		return nil, corrupt("trailing bytes after trailer (read %d: %v)", n, err)
	}
	a.Size = ar.n
	return &a, nil
}
