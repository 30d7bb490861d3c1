package blobvfs_test

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs"
)

// TestImportTypedErrors drives every documented import failure through
// the public Repo.Export/Import surface and checks that each one is
// errors.Is-able against its sentinel, and that a failed import leaves
// the downstream version set untouched.
func TestImportTypedErrors(t *testing.T) {
	fab := blobvfs.NewLiveCluster(4)
	common := []blobvfs.Option{
		blobvfs.WithChunkSize(syncChunk),
	}
	up, err := blobvfs.Open(fab, append(common[:len(common):len(common)], blobvfs.WithSyncUUID(0xA))...)
	if err != nil {
		t.Fatal(err)
	}
	// A third repository with its own identity, for the wrong-source case.
	other, err := blobvfs.Open(fab, append(common[:len(common):len(common)], blobvfs.WithSyncUUID(0xC))...)
	if err != nil {
		t.Fatal(err)
	}

	fab.Run(func(ctx *blobvfs.Ctx) {
		id, _ := buildLineage(t, ctx, up)

		// Three archives in sequence: full (0,2], delta (2,3], delta (3,5].
		var full, d23, d35 bytes.Buffer
		if _, err := up.Export(ctx, &full, id, 0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := up.Export(ctx, &d23, id, 2, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := up.Export(ctx, &d35, id, 3, 5); err != nil {
			t.Fatal(err)
		}

		// A full archive from the unrelated source repository.
		foreignRef, err := other.Create(ctx, "", img(syncSize, 99))
		if err != nil {
			t.Fatal(err)
		}
		var foreign bytes.Buffer
		if _, err := other.Export(ctx, &foreign, foreignRef.Image, 0, 1); err != nil {
			t.Fatal(err)
		}

		corrupt := append([]byte(nil), full.Bytes()...)
		corrupt[len(corrupt)/2] ^= 0x01

		cases := []struct {
			name string
			// prep imports prerequisites and/or mutates the downstream;
			// it returns the image the archives land on locally (0 if
			// none imported yet).
			prep    func(t *testing.T, ctx *blobvfs.Ctx, down *blobvfs.Repo) blobvfs.ImageID
			archive []byte
			want    error
		}{
			{
				name:    "truncated header",
				archive: full.Bytes()[:10],
				want:    blobvfs.ErrArchiveCorrupt,
			},
			{
				name:    "checksum mismatch",
				archive: corrupt,
				want:    blobvfs.ErrArchiveCorrupt,
			},
			{
				name:    "chunk records larger than the chunk size",
				archive: halveChunkSize(full.Bytes()),
				want:    blobvfs.ErrArchiveCorrupt,
			},
			{
				name: "sequence gap",
				prep: func(t *testing.T, ctx *blobvfs.Ctx, down *blobvfs.Repo) blobvfs.ImageID {
					ist, err := down.Import(ctx, bytes.NewReader(full.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					return ist.Image
				},
				archive: d35.Bytes(), // skips the (2,3] delta
				want:    blobvfs.ErrSequenceGap,
			},
			{
				name: "wrong source repository",
				prep: func(t *testing.T, ctx *blobvfs.Ctx, down *blobvfs.Repo) blobvfs.ImageID {
					ist, err := down.Import(ctx, bytes.NewReader(full.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					return ist.Image
				},
				archive: foreign.Bytes(),
				want:    blobvfs.ErrSourceMismatch,
			},
			{
				name: "base retired on importing side",
				prep: func(t *testing.T, ctx *blobvfs.Ctx, down *blobvfs.Repo) blobvfs.ImageID {
					ist, err := down.Import(ctx, bytes.NewReader(full.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := down.Import(ctx, bytes.NewReader(d23.Bytes())); err != nil {
						t.Fatal(err)
					}
					// Retire the delta's base version locally.
					if err := down.Retire(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 3}); err != nil {
						t.Fatal(err)
					}
					return ist.Image
				},
				archive: d35.Bytes(),
				want:    blobvfs.ErrBaseMissing,
			},
			{
				name:    "delta into fresh repository",
				archive: d23.Bytes(),
				want:    blobvfs.ErrBaseMissing,
			},
		}

		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				down, err := blobvfs.Open(fab, append(common[:len(common):len(common)], blobvfs.WithSyncUUID(0xB))...)
				if err != nil {
					t.Fatal(err)
				}
				var localID blobvfs.ImageID
				if tc.prep != nil {
					localID = tc.prep(t, ctx, down)
				}
				var before []blobvfs.Version
				if localID != 0 {
					if before, err = down.Versions(ctx, localID); err != nil {
						t.Fatal(err)
					}
				}
				_, err = down.Import(ctx, bytes.NewReader(tc.archive))
				if !errors.Is(err, tc.want) {
					t.Fatalf("Import err = %v, want %v", err, tc.want)
				}
				if localID != 0 {
					after, err := down.Versions(ctx, localID)
					if err != nil {
						t.Fatal(err)
					}
					if len(after) != len(before) {
						t.Fatalf("failed import changed the version set: %v -> %v", before, after)
					}
					for i := range after {
						if after[i] != before[i] {
							t.Fatalf("failed import changed the version set: %v -> %v", before, after)
						}
					}
				}
			})
		}
	})
}
