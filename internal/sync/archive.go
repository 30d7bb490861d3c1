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
// Both directions are one pass over the bytes. The writer sends chunk
// records straight to the io.Writer under running sums; the decoder
// reads the io.Reader front to back, each payload directly into the
// slice the importer stores. The decoder never trusts a declared
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
	binary.LittleEndian.PutUint64(buf[0:], p.Tag)
	binary.LittleEndian.PutUint32(buf[8:], uint32(p.Size))
	return uint64(crc32.Checksum(buf[:], castagnoli))
}

// archiveWriter serializes an archive incrementally — header first,
// then one section at a time — keeping the running section and
// whole-archive checksums as the bytes go out.
type archiveWriter struct {
	w    io.Writer
	arch uint32 // CRC-32C of every byte written
	sect uint32 // CRC-32C of the open section's body so far
	n    int64
	err  error
}

func newArchiveWriter(w io.Writer) *archiveWriter {
	return &archiveWriter{w: w}
}

// write sends raw bytes to the underlying writer and the running
// checksums; errors stick.
func (aw *archiveWriter) write(b []byte) {
	if aw.err != nil {
		return
	}
	aw.arch = crc32.Update(aw.arch, castagnoli, b)
	aw.sect = crc32.Update(aw.sect, castagnoli, b)
	n, err := aw.w.Write(b)
	aw.n += int64(n)
	aw.err = err
}

func (aw *archiveWriter) writeU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	aw.write(b[:])
}

func (aw *archiveWriter) writeHeader(h Header) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	putU32(&buf, formatVersion)
	putU64(&buf, h.SourceUUID)
	putU32(&buf, uint32(h.Image))
	putU32(&buf, uint32(h.From))
	putU32(&buf, uint32(h.To))
	putU64(&buf, h.Seq)
	putU32(&buf, uint32(h.ChunkSize))
	putU64(&buf, uint64(h.ImageSize))
	putU64(&buf, uint64(h.Span))
	putU64(&buf, uint64(crc32.Checksum(buf.Bytes(), castagnoli)))
	aw.write(buf.Bytes())
}

// beginSection writes a section's envelope. The body length goes out
// before the body, so the caller must know it up front.
func (aw *archiveWriter) beginSection(kind uint32, length uint64) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], kind)
	binary.LittleEndian.PutUint64(hdr[4:], length)
	aw.write(hdr[:])
	aw.sect = 0
}

func (aw *archiveWriter) endSection() {
	aw.writeU64(uint64(aw.sect))
}

func (aw *archiveWriter) writeSection(kind uint32, body []byte) {
	aw.beginSection(kind, uint64(len(body)))
	aw.write(body)
	aw.endSection()
}

// writeChunks streams the chunk section: each record's fixed part and
// then its payload, straight from the slice the provider returned.
func (aw *archiveWriter) writeChunks(recs []ChunkRecord) {
	length := uint64(4)
	for _, r := range recs {
		length += chunkRecLen + uint64(len(r.Payload.Data))
	}
	aw.beginSection(sectionChunks, length)
	var rec [chunkRecLen]byte
	binary.LittleEndian.PutUint32(rec[:], uint32(len(recs)))
	aw.write(rec[:4])
	for _, r := range recs {
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.Key))
		binary.LittleEndian.PutUint32(rec[8:], uint32(r.Payload.Size))
		binary.LittleEndian.PutUint64(rec[12:], r.Payload.Tag)
		rec[20] = 0
		if r.Payload.Real() {
			rec[20] = 1
		}
		binary.LittleEndian.PutUint64(rec[21:], r.Digest)
		aw.write(rec[:])
		if r.Payload.Real() {
			aw.write(r.Payload.Data)
		}
	}
	aw.endSection()
}

// finish writes the whole-archive checksum trailer and returns the
// total byte count.
func (aw *archiveWriter) finish() (int64, error) {
	aw.writeU64(uint64(aw.arch))
	return aw.n, aw.err
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func encodeVersions(recs []VersionRecord) []byte {
	var b bytes.Buffer
	putU32(&b, uint32(len(recs)))
	for _, r := range recs {
		putU32(&b, uint32(r.Version))
		flags := byte(0)
		if r.Retired {
			flags = 1
		}
		b.WriteByte(flags)
		putU64(&b, uint64(r.Root))
	}
	return b.Bytes()
}

func encodeNodes(recs []NodeRecord) []byte {
	var b bytes.Buffer
	putU32(&b, uint32(len(recs)))
	for _, r := range recs {
		putU64(&b, uint64(r.Ref))
		putU64(&b, uint64(r.Node.Lo))
		putU64(&b, uint64(r.Node.Hi))
		putU64(&b, uint64(r.Node.Left))
		putU64(&b, uint64(r.Node.Right))
		putU64(&b, uint64(r.Node.Chunk))
	}
	return b.Bytes()
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
	var b [8]byte
	if err := ar.read(ar.src, b[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(b[:]) != uint64(want) {
		return corrupt("%s checksum mismatch at offset %d", what, ar.n-8)
	}
	return nil
}

func (ar *archiveReader) header() (Header, error) {
	var b [headerLen]byte
	if err := ar.read(ar.src, b[:len(magic)]); err != nil {
		return Header{}, err
	}
	if !bytes.Equal(b[:len(magic)], magic[:]) {
		return Header{}, corrupt("bad magic %q", b[:len(magic)])
	}
	if err := ar.read(ar.src, b[8:12]); err != nil {
		return Header{}, err
	}
	if ver := binary.LittleEndian.Uint32(b[8:]); ver != formatVersion {
		return Header{}, corrupt("unsupported format version %d", ver)
	}
	if err := ar.read(ar.src, b[12:]); err != nil {
		return Header{}, err
	}
	le := binary.LittleEndian
	h := Header{
		SourceUUID: le.Uint64(b[12:]),
		Image:      blob.ID(le.Uint32(b[20:])),
		From:       blob.Version(le.Uint32(b[24:])),
		To:         blob.Version(le.Uint32(b[28:])),
		Seq:        le.Uint64(b[32:]),
		ChunkSize:  int32(le.Uint32(b[40:])),
		ImageSize:  int64(le.Uint64(b[44:])),
		Span:       int64(le.Uint64(b[52:])),
	}
	// The header opens the stream, so the archive sum so far is its sum.
	if err := ar.sum(ar.arch, "header"); err != nil {
		return Header{}, err
	}
	return h, validateHeader(h)
}

// validateHeader checks the header's internal consistency: geometry
// and version range. The chunk section is bounded by ChunkSize, so
// this runs before any section is read.
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

// beginSection reads one section's envelope and record count, and
// bounds the count: the section must be long enough for count records
// of recLen bytes (for a chunk record, the fixed part).
func (ar *archiveReader) beginSection(kind uint32, recLen int64) (int, error) {
	var b [12]byte
	if err := ar.read(ar.src, b[:]); err != nil {
		return 0, err
	}
	if got := binary.LittleEndian.Uint32(b[0:]); got != kind {
		return 0, corrupt("section kind %d, expected %d", got, kind)
	}
	length := binary.LittleEndian.Uint64(b[4:])
	if length > maxSectionLen {
		return 0, corrupt("section %d length %d exceeds limit", kind, length)
	}
	ar.body.N, ar.sect = int64(length), 0
	if err := ar.read(&ar.body, b[:4]); err != nil {
		return 0, err
	}
	count := int64(binary.LittleEndian.Uint32(b[:]))
	if count*recLen > ar.body.N {
		return 0, corrupt("section %d: count %d disagrees with section length %d", kind, count, length)
	}
	return int(count), nil
}

// endSection closes a section after its last record: the records must
// have used up the declared length exactly (which is also what makes
// the counts of the fixed-size sections exact), and the body must
// match its checksum.
func (ar *archiveReader) endSection(kind uint32) error {
	if ar.body.N != 0 {
		return corrupt("%d bytes of section %d left after its last record", ar.body.N, kind)
	}
	return ar.sum(ar.sect, "section")
}

func (ar *archiveReader) versions() ([]VersionRecord, error) {
	count, err := ar.beginSection(sectionVersions, versionRecLen)
	if err != nil {
		return nil, err
	}
	recs := make([]VersionRecord, 0, min(count, recordsAhead))
	var b [versionRecLen]byte
	for i := 0; i < count; i++ {
		if err := ar.read(&ar.body, b[:]); err != nil {
			return nil, err
		}
		flags := b[4]
		if flags > 1 {
			return nil, corrupt("version record %d: unknown flags %#x", i, flags)
		}
		rec := VersionRecord{
			Version: blob.Version(binary.LittleEndian.Uint32(b[0:])),
			Retired: flags == 1,
			Root:    blob.NodeRef(binary.LittleEndian.Uint64(b[5:])),
		}
		if rec.Retired && rec.Root != 0 {
			return nil, corrupt("retired version %d carries a root", rec.Version)
		}
		recs = append(recs, rec)
	}
	return recs, ar.endSection(sectionVersions)
}

func (ar *archiveReader) nodes() ([]NodeRecord, error) {
	count, err := ar.beginSection(sectionNodes, nodeRecLen)
	if err != nil {
		return nil, err
	}
	recs := make([]NodeRecord, 0, min(count, recordsAhead))
	var b [nodeRecLen]byte
	for i := 0; i < count; i++ {
		if err := ar.read(&ar.body, b[:]); err != nil {
			return nil, err
		}
		le := binary.LittleEndian
		ref := le.Uint64(b[0:])
		n := blob.TreeNode{
			Lo: int64(le.Uint64(b[8:])), Hi: int64(le.Uint64(b[16:])),
			Left: blob.NodeRef(le.Uint64(b[24:])), Right: blob.NodeRef(le.Uint64(b[32:])),
			Chunk: blob.ChunkKey(le.Uint64(b[40:])),
		}
		if ref == 0 || n.Lo < 0 || n.Hi <= n.Lo {
			return nil, corrupt("node record %d: invalid ref %d or range [%d,%d)", i, ref, n.Lo, n.Hi)
		}
		if n.Leaf() && (n.Left != 0 || n.Right != 0) {
			return nil, corrupt("node record %d: leaf with children", i)
		}
		if !n.Leaf() && n.Chunk != 0 {
			return nil, corrupt("node record %d: inner node with chunk", i)
		}
		recs = append(recs, NodeRecord{Ref: blob.NodeRef(ref), Node: n})
	}
	return recs, ar.endSection(sectionNodes)
}

// chunks decodes the chunk section one record at a time. A record
// whose size exceeds the header's chunk size is rejected when its
// fixed part is read, before any memory is taken for its payload.
func (ar *archiveReader) chunks(chunkSize int32) ([]ChunkRecord, error) {
	count, err := ar.beginSection(sectionChunks, chunkRecLen)
	if err != nil {
		return nil, err
	}
	recs := make([]ChunkRecord, 0, min(count, recordsAhead))
	var b [chunkRecLen]byte
	for i := 0; i < count; i++ {
		if err := ar.read(&ar.body, b[:]); err != nil {
			return nil, err
		}
		le := binary.LittleEndian
		key, size, flags := le.Uint64(b[0:]), int32(le.Uint32(b[8:])), b[20]
		p := blob.Payload{Size: size, Tag: le.Uint64(b[12:])}
		digest := le.Uint64(b[21:])
		if flags > 1 {
			return nil, corrupt("chunk record %d: unknown flags %#x", i, flags)
		}
		if key == 0 || size < 0 || size > chunkSize {
			return nil, corrupt("chunk record %d: invalid key %d or size %d (chunk size %d)", i, key, size, chunkSize)
		}
		if flags == 1 {
			// The fixed parts of the records still to come are spoken
			// for (beginSection checked they fit, and every payload
			// since has left them room); the rest of the section is
			// the most payload it can still hold.
			room := ar.body.N - int64(count-i-1)*chunkRecLen
			if int64(size) > room {
				return nil, corrupt("chunk record %d: payload of %d bytes, its section has room for %d", i, size, room)
			}
			if p.Data, err = ar.payload(int(size), room); err != nil {
				return nil, err
			}
		}
		if payloadDigest(p) != digest {
			return nil, corrupt("chunk record %d (key %d): payload digest mismatch", i, key)
		}
		recs = append(recs, ChunkRecord{Key: blob.ChunkKey(key), Payload: p, Digest: digest})
	}
	return recs, ar.endSection(sectionChunks)
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
	if a.Versions, err = ar.versions(); err != nil {
		return nil, err
	}
	if a.Nodes, err = ar.nodes(); err != nil {
		return nil, err
	}
	if a.Chunks, err = ar.chunks(a.Header.ChunkSize); err != nil {
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
