package blobvfs_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"blobvfs"
	"blobvfs/internal/blob"
)

const (
	fuzzChunk = 1 << 10
	fuzzSize  = 4 << 10 // 4 chunks
)

// buildSyncSeeds produces one valid full archive (0,1] and one valid
// delta (1,2] from a tiny two-version lineage, for the fuzz corpus.
func buildSyncSeeds(f *testing.F) (full, delta []byte) {
	fab := blobvfs.NewLiveCluster(2)
	up, err := blobvfs.Open(fab,
		blobvfs.WithChunkSize(fuzzChunk),
		blobvfs.WithSyncUUID(0xA))
	if err != nil {
		f.Fatal(err)
	}
	var fullBuf, deltaBuf bytes.Buffer
	fab.Run(func(ctx *blobvfs.Ctx) {
		ref, err := up.Create(ctx, "", img(fuzzSize, 3))
		if err != nil {
			f.Fatal(err)
		}
		disk, err := up.OpenDisk(ctx, ctx.Node(), ref)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := disk.WriteAt(ctx, img(fuzzChunk, 4), 2*fuzzChunk); err != nil {
			f.Fatal(err)
		}
		if _, err := disk.Commit(ctx); err != nil {
			f.Fatal(err)
		}
		if err := disk.Close(ctx); err != nil {
			f.Fatal(err)
		}
		if _, err := up.Export(ctx, &fullBuf, ref.Image, 0, 1); err != nil {
			f.Fatal(err)
		}
		if _, err := up.Export(ctx, &deltaBuf, ref.Image, 1, 2); err != nil {
			f.Fatal(err)
		}
	})
	return fullBuf.Bytes(), deltaBuf.Bytes()
}

// halveChunkSize rewrites a valid archive's header to half the chunk
// size (and the span that goes with it) and re-seals the two checksums
// that cover the header, so all that is wrong with the result is that
// its chunk records are larger than the chunk size it declares.
func halveChunkSize(archive []byte) []byte {
	const chunkSizeAt, spanAt, headerSumAt = 40, 52, 60 // see docs/sync.md
	a := append([]byte(nil), archive...)
	le, table := binary.LittleEndian, crc32.MakeTable(crc32.Castagnoli)
	le.PutUint32(a[chunkSizeAt:], le.Uint32(a[chunkSizeAt:])/2)
	le.PutUint64(a[spanAt:], le.Uint64(a[spanAt:])*2)
	le.PutUint64(a[headerSumAt:], uint64(crc32.Checksum(a[:headerSumAt], table)))
	le.PutUint64(a[len(a)-8:], uint64(crc32.Checksum(a[:len(a)-8], table)))
	return a
}

// repoState captures everything an import may mutate: stored chunks
// and their keys, metadata nodes, pending allocations, and the live
// version set.
type repoState struct {
	Chunks      int
	StoredBytes int64
	Nodes       int
	PendingKeys int
	PendingRefs int
	Stored      map[blob.ChunkKey]bool
	Versions    []blobvfs.Version
}

func captureState(t *testing.T, ctx *blobvfs.Ctx, r *blobvfs.Repo, id blobvfs.ImageID) repoState {
	t.Helper()
	sys := r.System()
	st := repoState{
		Chunks:      sys.Providers.ChunkCount(),
		StoredBytes: sys.Providers.StoredBytes(),
		Nodes:       sys.Meta.NodeCount(),
		Stored:      storedKeys(r),
	}
	_, pk := sys.Providers.PendingSnapshot()
	_, pr := sys.Meta.PendingSnapshot()
	st.PendingKeys = len(pk)
	st.PendingRefs = len(pr)
	if id != 0 {
		vs, err := r.Versions(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		st.Versions = vs
	}
	return st
}

// FuzzImportArchive feeds arbitrary bytes to Repo.Import on a
// downstream that has already imported one valid full archive. The
// importer must never panic, and a rejected archive must leave the
// repository byte-identical: same chunks, same stored keys, same tree
// nodes, no leaked pending allocations, same version set.
func FuzzImportArchive(f *testing.F) {
	full, delta := buildSyncSeeds(f)
	f.Add(full)
	f.Add(delta)
	f.Add(full[:8])
	f.Add(full[:len(full)/2])
	f.Add(append([]byte(nil), []byte("BVFSYNC1")...))
	f.Add([]byte{})
	f.Add(halveChunkSize(full))

	f.Fuzz(func(t *testing.T, data []byte) {
		fab := blobvfs.NewLiveCluster(2)
		down, err := blobvfs.Open(fab,
			blobvfs.WithChunkSize(fuzzChunk),
			blobvfs.WithSyncUUID(0xB))
		if err != nil {
			t.Fatal(err)
		}
		fab.Run(func(ctx *blobvfs.Ctx) {
			ist, err := down.Import(ctx, bytes.NewReader(full))
			if err != nil {
				t.Fatalf("seed import: %v", err)
			}
			before := captureState(t, ctx, down, ist.Image)
			if _, err := down.Import(ctx, bytes.NewReader(data)); err != nil {
				after := captureState(t, ctx, down, ist.Image)
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("failed import mutated the repository:\nbefore %+v\nafter  %+v", before, after)
				}
			}
		})
	})
}
