package sync

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"blobvfs/internal/blob"
)

// encodeArchive serializes an archive the way Export does, for codec
// tests that need the bytes without a fabric.
func encodeArchive(a *Archive) []byte {
	var buf bytes.Buffer
	if _, err := writeArchive(&buf, a); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func chunkRecord(key blob.ChunkKey, p blob.Payload) ChunkRecord {
	return ChunkRecord{Key: key, Payload: p, Digest: payloadDigest(p)}
}

func sampleArchive() *Archive {
	return &Archive{
		Header: Header{
			SourceUUID: 0xA11CE,
			Image:      3,
			From:       2,
			To:         4,
			Seq:        7,
			ChunkSize:  4096,
			ImageSize:  8192,
			Span:       2,
		},
		Versions: []VersionRecord{
			{Version: 3, Retired: true},
			{Version: 4, Root: 101},
		},
		Nodes: []NodeRecord{
			{Ref: 101, Node: blob.TreeNode{Lo: 0, Hi: 2, Left: 102, Right: 55}},
			{Ref: 102, Node: blob.TreeNode{Lo: 0, Hi: 1, Chunk: 201}},
		},
		Chunks: []ChunkRecord{
			chunkRecord(201, blob.RealPayload([]byte("delta payload bytes"))),
			chunkRecord(202, blob.SyntheticPayload(4096, 77)),
			// Zero bytes, but real: Data must come back non-nil.
			chunkRecord(203, blob.RealPayload([]byte{})),
		},
	}
}

// slabArchive carries real payloads that do not pack into the
// decoder's slabs: two that leave a slab's tail unused, and one larger
// than a slab.
func slabArchive() *Archive {
	a := sampleArchive()
	a.Header.ChunkSize = 8 << 20
	a.Header.ImageSize = 16 << 20
	rng := rand.New(rand.NewSource(15))
	for i, size := range []int{3 << 20, 3 << 20, slabSize + 1<<20, 100} {
		data := make([]byte, size)
		rng.Read(data)
		a.Chunks = append(a.Chunks, chunkRecord(blob.ChunkKey(300+i), blob.RealPayload(data)))
	}
	return a
}

func TestArchiveRoundTrip(t *testing.T) {
	for name, a := range map[string]*Archive{"sample": sampleArchive(), "slabs": slabArchive()} {
		raw := encodeArchive(a)
		got, err := DecodeArchive(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Size != int64(len(raw)) {
			t.Fatalf("%s: Size = %d, want %d", name, got.Size, len(raw))
		}
		got.Size = 0
		// DeepEqual tells a nil Data from an empty one.
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, a)
		}
	}
}

// TestArchiveFormatPinned pins the encoding byte for byte. A change to
// the wire format changes these on purpose, with formatVersion.
func TestArchiveFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *Archive
		size int
		sum  string
	}{
		{"sample", sampleArchive(), 376, "c7e706064246b058dfd2a7eb90c347b9330b1f9519bec7767b0a059f09b5d0d7"},
		{"slabs", slabArchive(), 11_534_928, "c8615bf78c95360f0832e20b6a3b439eb1c49100973e931beb749cb95e877367"},
	} {
		raw := encodeArchive(tc.a)
		sum := sha256.Sum256(raw)
		if len(raw) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s: %d bytes, SHA-256 %x; want %d bytes, %s", tc.name, len(raw), sum, tc.size, tc.sum)
		}
	}
}

// archiveFrom builds an archive the decoder accepts from arbitrary
// bytes: every field the decoder checks is brought into range, every
// other field is taken from in as it comes.
func archiveFrom(in []byte) *Archive {
	// next takes the next n <= 8 bytes of in, little-endian, zero past
	// its end.
	next := func(n int) uint64 {
		var b [8]byte
		in = in[copy(b[:n], in):]
		return le.Uint64(b[:])
	}
	h := Header{
		SourceUUID: next(8),
		Image:      blob.ID(next(4)),
		From:       blob.Version(next(1)),
		Seq:        next(8),
		ChunkSize:  1 + int32(next(2)),
		ImageSize:  int64(next(3)),
	}
	h.To = h.From + 1 + blob.Version(next(1))
	for h.Span = 1; h.Span*int64(h.ChunkSize) < h.ImageSize; h.Span <<= 1 {
	}
	a := &Archive{Header: h, Versions: []VersionRecord{}, Nodes: []NodeRecord{}, Chunks: []ChunkRecord{}}
	for len(in) > 0 {
		switch next(1) % 3 {
		case 0:
			r := VersionRecord{Version: blob.Version(next(4)), Retired: next(1)%2 == 1}
			if !r.Retired {
				r.Root = blob.NodeRef(next(8))
			}
			a.Versions = append(a.Versions, r)
		case 1:
			r := NodeRecord{Ref: blob.NodeRef(max(1, next(8))), Node: blob.TreeNode{Lo: int64(next(7))}}
			r.Node.Hi = r.Node.Lo + 1 + int64(next(2))
			if r.Node.Leaf() {
				r.Node.Chunk = blob.ChunkKey(next(8))
			} else {
				r.Node.Left, r.Node.Right = blob.NodeRef(next(8)), blob.NodeRef(next(8))
			}
			a.Nodes = append(a.Nodes, r)
		case 2:
			key, size := blob.ChunkKey(max(1, next(8))), int32(next(2))%(h.ChunkSize+1)
			p := blob.SyntheticPayload(size, next(8))
			if next(1)%2 == 1 {
				data := make([]byte, size)
				in = in[copy(data, in):]
				p.Data = data
			}
			a.Chunks = append(a.Chunks, chunkRecord(key, p))
		}
	}
	return a
}

// FuzzArchiveRoundTrip: whatever valid archive the input describes,
// DecodeArchive returns exactly what writeArchive encoded.
func FuzzArchiveRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeArchive(sampleArchive()))
	f.Fuzz(func(t *testing.T, in []byte) {
		a := archiveFrom(in)
		var buf bytes.Buffer
		n, err := writeArchive(&buf, a)
		if err != nil || n != int64(buf.Len()) {
			t.Fatalf("writeArchive: %d bytes reported, %d written, err %v", n, buf.Len(), err)
		}
		got, err := DecodeArchive(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a.Size = n
		// DeepEqual tells a nil Data from an empty one, and a nil
		// section from an empty one.
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
		}
	})
}

// TestDecodeFromAwkwardReaders decodes through readers that deliver
// the stream one byte at a time, or its last bytes together with
// io.EOF: the decoder must not depend on how Read slices the archive.
func TestDecodeFromAwkwardReaders(t *testing.T) {
	a := sampleArchive()
	raw := encodeArchive(a)
	a.Size = int64(len(raw))
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one byte": iotest.OneByteReader,
		"data+EOF": iotest.DataErrReader,
		"half":     iotest.HalfReader,
	} {
		got, err := DecodeArchive(wrap(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("%s: mismatch:\n got %+v\nwant %+v", name, got, a)
		}
	}
}

// TestDecodeReaderError cuts the stream at every offset with a reader
// error that is not io.EOF — mid-header, mid-payload, and after the
// last byte, where the decoder looks for the end of the stream.
func TestDecodeReaderError(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	boom := errors.New("link down")
	for n := 0; n <= len(raw); n++ {
		src := io.MultiReader(bytes.NewReader(raw[:n]), iotest.ErrReader(boom))
		if _, err := DecodeArchive(src); !errors.Is(err, ErrArchiveCorrupt) {
			t.Fatalf("reader error after %d of %d bytes: err = %v, want ErrArchiveCorrupt", n, len(raw), err)
		}
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeArchive(bytes.NewReader(raw[:n])); !errors.Is(err, ErrArchiveCorrupt) {
			t.Fatalf("truncation at %d of %d: err = %v, want ErrArchiveCorrupt", n, len(raw), err)
		}
	}
}

func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	for off := 0; off < len(raw); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 1 << bit
			if _, err := DecodeArchive(bytes.NewReader(mut)); !errors.Is(err, ErrArchiveCorrupt) {
				t.Fatalf("flip of bit %d at offset %d: err = %v, want ErrArchiveCorrupt", bit, off, err)
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	raw = append(raw, 0xEE)
	if _, err := DecodeArchive(bytes.NewReader(raw)); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("err = %v, want ErrArchiveCorrupt", err)
	}
}

// TestDecodeRejectsFormatV1: the version is read before the header
// checksum, so a v1 stream is named for what it is.
func TestDecodeRejectsFormatV1(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	binary.LittleEndian.PutUint32(raw[len(magic):], 1)
	_, err := DecodeArchive(bytes.NewReader(raw))
	if !errors.Is(err, ErrArchiveCorrupt) || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("err = %v, want ErrArchiveCorrupt naming format version 1", err)
	}
}

// TestDecodeChecksHeaderBeforeSections: a header that fails the
// geometry check is rejected with nothing past it read, so its chunk
// size never bounds a record.
func TestDecodeChecksHeaderBeforeSections(t *testing.T) {
	for name, mutate := range map[string]func(*Header){
		"no chunk size":  func(h *Header) { h.ChunkSize = 0 },
		"negative size":  func(h *Header) { h.ImageSize = -1 },
		"empty range":    func(h *Header) { h.To = h.From },
		"negative base":  func(h *Header) { h.From = -1 },
		"span too small": func(h *Header) { h.Span = 1 },
	} {
		a := sampleArchive()
		mutate(&a.Header)
		src := bytes.NewReader(encodeArchive(a))
		_, err := DecodeArchive(src)
		if !errors.Is(err, ErrArchiveCorrupt) {
			t.Errorf("%s: err = %v, want ErrArchiveCorrupt", name, err)
		}
		if read := int(src.Size()) - src.Len(); read != headerLen+8 {
			t.Errorf("%s: decoder read %d bytes, want the %d of the header", name, read, headerLen+8)
		}
	}
}

// TestDecodeRejectsSectionWithoutCount: a section too short for its
// own record count.
func TestDecodeRejectsSectionWithoutCount(t *testing.T) {
	header := encodeArchive(sampleArchive())[:headerLen+8]
	for length := 0; length < 4; length++ {
		body := make([]byte, length)
		raw := append([]byte(nil), header...)
		raw = le.AppendUint32(raw, sectionVersions)
		raw = le.AppendUint64(raw, uint64(length))
		raw = append(raw, body...)
		raw = le.AppendUint64(raw, uint64(crc32.Checksum(body, castagnoli)))
		if _, err := DecodeArchive(bytes.NewReader(raw)); !errors.Is(err, ErrArchiveCorrupt) {
			t.Errorf("versions section of %d bytes: err = %v, want ErrArchiveCorrupt", length, err)
		}
	}
}

// TestDecodeRejectsOversizedChunk: every checksum of these archives is
// right; only the comparison with the header's chunk size rejects them.
func TestDecodeRejectsOversizedChunk(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload blob.Payload
		ok      bool
	}{
		{"real, one chunk long", blob.RealPayload(make([]byte, 4096)), true},
		{"real, one byte over", blob.RealPayload(make([]byte, 4097)), false},
		{"synthetic, one chunk long", blob.SyntheticPayload(4096, 9), true},
		{"synthetic, one byte over", blob.SyntheticPayload(4097, 9), false},
	} {
		a := sampleArchive()
		a.Chunks = append(a.Chunks, chunkRecord(204, tc.payload))
		_, err := DecodeArchive(bytes.NewReader(encodeArchive(a)))
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrArchiveCorrupt) {
			t.Errorf("%s: err = %v, want ErrArchiveCorrupt", tc.name, err)
		}
	}
}

// TestDecodeLyingLengthsAllocateLittle feeds the decoder short streams
// whose declared lengths promise a gigabyte. Memory must follow the
// bytes received, not the promise.
func TestDecodeLyingLengthsAllocateLittle(t *testing.T) {
	a := sampleArchive()
	// prefix is the stream up to section upTo, cut from a whole
	// archive under header h: the header and the sections before it.
	prefix := func(h Header, upTo uint32) []byte {
		b := *a
		b.Header = h
		n := headerLen + 8
		if upTo > sectionVersions {
			n += 12 + 4 + len(a.Versions)*versionRecLen + 8
		}
		if upTo > sectionNodes {
			n += 12 + 4 + len(a.Nodes)*nodeRecLen + 8
		}
		return encodeArchive(&b)[:n]
	}
	// open begins a section of the largest admissible length, holding
	// as many records as fit, and cuts the stream after extra.
	open := func(raw []byte, kind uint32, recLen int, extra []byte) []byte {
		raw = le.AppendUint32(raw, kind)
		raw = le.AppendUint64(raw, maxSectionLen)
		raw = le.AppendUint32(raw, uint32((maxSectionLen-4)/recLen))
		return append(raw, extra...)
	}
	chunkRec := func(size uint32) []byte {
		rec := make([]byte, chunkRecLen)
		binary.LittleEndian.PutUint64(rec[0:], 1) // key
		binary.LittleEndian.PutUint32(rec[8:], size)
		rec[20] = 1 // real
		return rec
	}
	huge := a.Header
	huge.ChunkSize, huge.ImageSize, huge.Span = 1<<30, 1<<30, 1

	for name, raw := range map[string][]byte{
		"versions": open(prefix(a.Header, sectionVersions), sectionVersions, versionRecLen, nil),
		"nodes":    open(prefix(a.Header, sectionNodes), sectionNodes, nodeRecLen, nil),
		"chunks":   open(prefix(a.Header, sectionChunks), sectionChunks, chunkRecLen, chunkRec(4096)),
		// One chunk of half a gigabyte, admitted by the header.
		"huge chunk": open(prefix(huge, sectionChunks), sectionChunks, maxSectionLen/2, chunkRec(1<<29)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeArchive(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrArchiveCorrupt) {
			t.Errorf("%s: err = %v, want ErrArchiveCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
			t.Errorf("%s: a %d-byte stream made the decoder allocate %d bytes", name, len(raw), got)
		}
	}
}

// benchArchive is the live-io benchmark's full archive: a 64 MiB image
// of real 256 KiB chunks.
func benchArchive() *Archive {
	const chunk, n = 256 << 10, 256
	a := &Archive{
		Header:   Header{SourceUUID: 1, Image: 1, To: 1, Seq: 1, ChunkSize: chunk, ImageSize: chunk * n, Span: n},
		Versions: []VersionRecord{{Version: 1, Root: 1}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		data := make([]byte, chunk)
		rng.Read(data)
		a.Chunks = append(a.Chunks, chunkRecord(blob.ChunkKey(i+1), blob.RealPayload(data)))
	}
	return a
}

func BenchmarkArchiveEncode(b *testing.B) {
	a := benchArchive()
	var buf bytes.Buffer
	writeArchive(&buf, a) // sizes the buffer: the timed writes do not grow it
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		writeArchive(&buf, a)
	}
}

func BenchmarkArchiveDecode(b *testing.B) {
	raw := encodeArchive(benchArchive())
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArchive(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPayloadDigestDistinguishes(t *testing.T) {
	a := payloadDigest(blob.RealPayload([]byte("aaaa")))
	b := payloadDigest(blob.RealPayload([]byte("aaab")))
	if a == b {
		t.Fatal("distinct real payloads share a digest")
	}
	s1 := payloadDigest(blob.SyntheticPayload(4096, 1))
	s2 := payloadDigest(blob.SyntheticPayload(4096, 2))
	if s1 == s2 {
		t.Fatal("distinct synthetic payloads share a digest")
	}
}

func TestTrackerSequenceRules(t *testing.T) {
	up := NewTracker(0xA)
	down := NewTracker(0xB)
	h := func(image blob.ID, from, to blob.Version, seq uint64) Header {
		return Header{SourceUUID: up.uuid, Image: image, From: from, To: to, Seq: seq}
	}

	// Self-import is refused.
	if _, err := up.admit(h(1, 0, 1, 1)); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("self-import: %v", err)
	}
	// A delta for an unknown image has no base.
	if _, err := down.admit(h(1, 1, 2, 2)); !errors.Is(err, ErrBaseMissing) {
		t.Fatalf("delta without base: %v", err)
	}
	// Full archive admits and latches the source.
	if _, err := down.admit(h(1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	down.commitImport(h(1, 0, 1, 1), 11)
	if _, err := down.admit(Header{SourceUUID: 0xC, Image: 9, From: 0, To: 1, Seq: 1}); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("foreign source: %v", err)
	}
	// Replaying the full archive is a sequence violation.
	if _, err := down.admit(h(1, 0, 1, 1)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("full replay: %v", err)
	}
	// Skipping seq 2 is a gap; the exact successor admits.
	if _, err := down.admit(h(1, 2, 3, 3)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("seq skip: %v", err)
	}
	local, err := down.admit(h(1, 1, 2, 2))
	if err != nil || local != 11 {
		t.Fatalf("successor: local=%d err=%v", local, err)
	}
	// Base/seq must both line up: right seq, wrong base.
	if _, err := down.admit(h(1, 2, 3, 2)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("base mismatch: %v", err)
	}

	if _, ok := down.Local(1); !ok {
		t.Fatal("Local lost the cursor")
	}
	if _, ok := down.Local(42); ok {
		t.Fatal("Local invented a cursor")
	}
}
