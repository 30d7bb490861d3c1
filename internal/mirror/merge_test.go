package mirror

import (
	"bytes"
	"math/rand"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// mergeFetchedRef is the byte-at-a-time merge fetchChunks ran before
// mergeFetched, kept as the reference the bulk merge is compared with.
func mergeFetchedRef(dst []byte, p blob.Payload, dirtyLo, dirtyHi int32) {
	for i := int32(0); i < int32(len(dst)); i++ {
		if i >= dirtyLo && i < dirtyHi {
			continue // local modification wins
		}
		if p.Real() && int(i) < len(p.Data) {
			dst[i] = p.Data[i]
		} else {
			dst[i] = 0
		}
	}
}

func TestMergeFetchedMatchesByteLoop(t *testing.T) {
	const chunk = 64
	rng := rand.New(rand.NewSource(15))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 5000; i++ {
		clen := chunk
		if rng.Intn(3) == 0 { // the image's short last chunk
			clen = 1 + rng.Intn(chunk)
		}
		var lo, hi int // the dirty range
		switch rng.Intn(5) {
		case 0: // empty
		case 1: // interior, or touching an end by chance
			lo = rng.Intn(clen)
			hi = lo + 1 + rng.Intn(clen-lo)
		case 2: // from the chunk's first byte
			hi = 1 + rng.Intn(clen)
		case 3: // to the chunk's last byte
			lo, hi = rng.Intn(clen), clen
		case 4: // all of it
			hi = clen
		}
		var p blob.Payload
		switch rng.Intn(5) {
		case 0: // as long as the chunk
			p = blob.RealPayload(random(clen))
		case 1: // shorter, down to no bytes at all
			p = blob.RealPayload(random(rng.Intn(clen)))
		case 2: // a whole chunk stored for the short last one
			p = blob.RealPayload(random(chunk))
		case 3:
			p = blob.SyntheticPayload(int32(clen), uint64(i))
		case 4: // nil data: a sparse chunk's zero payload
		}
		got := random(clen) // what the mirror held, dirty bytes included
		want := bytes.Clone(got)
		mergeFetched(got, p, span{int32(lo), int32(hi)})
		mergeFetchedRef(want, p, int32(lo), int32(hi))
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: chunk of %d, dirty [%d,%d), payload %d bytes (real %v):\n got %v\nwant %v",
				i, clen, lo, hi, len(p.Data), p.Real(), got, want)
		}
	}
}

// BenchmarkMirrorColdRead reads a real 16 MiB image of 256 KiB chunks
// through a mirror that starts empty: every chunk is fetched from its
// provider and merged into the local copy.
func BenchmarkMirrorColdRead(b *testing.B) {
	const size, chunk, readLen = 16 << 20, 256 << 10, 1 << 20
	rig := newRig(b, 4, size, chunk)
	buf := make([]byte, readLen)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.fab.Run(func(ctx *cluster.Ctx) {
			// A module of its own: no mirror state from the last pass.
			mod := NewModule(0, blob.NewClient(rig.sys))
			im, err := mod.Open(ctx, rig.imageID, rig.imageV, true)
			if err != nil {
				b.Fatal(err)
			}
			for off := int64(0); off < size; off += readLen {
				if _, err := im.ReadAt(ctx, buf, off); err != nil {
					b.Fatal(err)
				}
			}
			im.Close(ctx)
		})
	}
	if !bytes.Equal(buf, rig.base[size-readLen:]) {
		b.Fatal("last read differs from the image")
	}
}

// BenchmarkMirrorSparseOpen opens a synthetic image of 8,192 chunks of
// 256 KiB (2 GiB), reads one chunk in 32 (3 %), writes a few small
// ranges and closes: a boot's footprint on an image far larger than
// what it touches, so B/op is dominated by what an open costs per
// chunk of the image.
func BenchmarkMirrorSparseOpen(b *testing.B) {
	const chunks, chunk = 8192, 256 << 10
	fab := cluster.NewLive(4)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3}, 0, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		if id, err = c.Create(ctx, chunks*chunk, chunk); err == nil {
			v, err = c.WriteFull(ctx, id, 0, 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Run(func(ctx *cluster.Ctx) {
			mod := NewModule(0, blob.NewClient(sys))
			im, err := mod.Open(ctx, id, v, false)
			if err != nil {
				b.Fatal(err)
			}
			for ci := int64(0); ci < chunks; ci += 32 {
				if err := im.Read(ctx, ci*chunk+4096, 8192); err != nil {
					b.Fatal(err)
				}
			}
			for ci := int64(5); ci < chunks; ci += 1024 {
				if err := im.Write(ctx, ci*chunk+100, 4096); err != nil {
					b.Fatal(err)
				}
			}
			im.Close(ctx)
		})
	}
}
