package blob

import (
	"bytes"
	"math/rand"
	"testing"

	"blobvfs/internal/cluster"
)

// copyToRef is the byte-at-a-time loop Client.ReadAt ran before
// Payload.CopyTo, kept as the reference the bulk copy is compared with.
func copyToRef(dst []byte, p Payload, at int64) {
	if !p.Real() {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i := range dst {
		if j := at + int64(i); j < int64(len(p.Data)) {
			dst[i] = p.Data[j]
		} else {
			dst[i] = 0
		}
	}
}

func TestCopyToMatchesByteLoop(t *testing.T) {
	const chunk = 64
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 5000; i++ {
		var p Payload
		switch rng.Intn(4) {
		case 0: // a whole chunk
			p = RealPayload(pattern(chunk, byte(i)))
		case 1: // shorter than the chunk, down to no bytes at all
			p = RealPayload(pattern(rng.Intn(chunk), byte(i)))
		case 2:
			p = SyntheticPayload(chunk, uint64(i))
		case 3: // nil data: a sparse chunk's zero payload
		}
		at := int64(rng.Intn(chunk))
		n := rng.Intn(chunk - int(at) + 1)
		got, want := pattern(n, 0xEE), pattern(n, 0xEE) // stale bytes to overwrite
		p.CopyTo(got, at)
		copyToRef(want, p, at)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: payload %d bytes (real %v), %d bytes from %d:\n got %v\nwant %v",
				i, len(p.Data), p.Real(), n, at, got, want)
		}
	}
}

// TestReadAtUnalignedOverShortLastChunk reads at random unaligned
// offsets from an image whose size is no multiple of its chunk size and
// whose middle was never written, so reads cross real, sparse and
// short chunks.
func TestReadAtUnalignedOverShortLastChunk(t *testing.T) {
	const chunk, size = 1 << 10, 10<<10 + 300
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, err := c.Create(ctx, size, chunk)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, size)
		copy(want, pattern(4<<10, 5))
		v, err := c.WriteAt(ctx, id, 0, want[:4<<10], 0)
		if err != nil {
			t.Fatal(err)
		}
		tail := pattern(size-(9<<10+500), 9) // from inside chunk 9 to the end of the short chunk 10
		copy(want[9<<10+500:], tail)
		if v, err = c.WriteAt(ctx, id, v, tail, 9<<10+500); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 500; i++ {
			off := rng.Intn(size)
			n := 1 + rng.Intn(size-off)
			if i%5 == 0 { // end exactly at the image's end
				n = size - off
			}
			got := pattern(n, 0xEE)
			if err := c.ReadAt(ctx, id, v, got, int64(off)); err != nil {
				t.Fatalf("read [%d,%d): %v", off, off+n, err)
			}
			if !bytes.Equal(got, want[off:off+n]) {
				t.Fatalf("read [%d,%d) differs from what was written", off, off+n)
			}
		}
	})
}
