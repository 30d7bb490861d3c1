package sync

import (
	"bytes"
	"errors"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// TestImportRacingWriterLeavesImageWritable: a local writer commits to
// the image while a delta import is applying. The import must fail with
// ErrSequenceGap rather than publish the source's version under another
// number, and the image must stay writable: a later commit completes
// within a bounded number of simulation steps.
func TestImportRacingWriterLeavesImageWritable(t *testing.T) {
	const (
		chunk  = 256 << 10
		chunks = 32
	)
	fab := cluster.NewSim(cluster.DefaultConfig(8))
	up := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3}, 0, 1)
	down := blob.NewSystem([]cluster.NodeID{4, 5, 6, 7}, 4, 1)
	upT, downT := NewTracker(0xA), NewTracker(0xB)
	fab.Run(func(ctx *cluster.Ctx) {
		uc := blob.NewClient(up)
		id, err := uc.Create(ctx, chunks*chunk, chunk)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := uc.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		var full, delta bytes.Buffer
		if _, err := Export(ctx, up, upT, &full, id, 0, v1); err != nil {
			t.Fatal(err)
		}
		st, err := Import(ctx, down, downT, &full)
		if err != nil {
			t.Fatal(err)
		}
		local := st.Image
		// The delta rewrites every chunk, so the import spends long
		// enough storing it for a one-chunk local commit to publish
		// first.
		v2, err := uc.WriteFull(ctx, id, v1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Export(ctx, up, upT, &delta, id, v1, v2); err != nil {
			t.Fatal(err)
		}

		one := []blob.ChunkWrite{{Index: 0, Payload: blob.SyntheticPayload(chunk, 9)}}
		var importErr error
		var writerV blob.Version
		ctx.WaitAll([]cluster.Task{
			ctx.Go("import", 5, func(cc *cluster.Ctx) {
				_, importErr = Import(cc, down, downT, &delta)
			}),
			ctx.Go("writer", 6, func(cc *cluster.Ctx) {
				var err error
				if writerV, err = blob.NewClient(down).WriteChunks(cc, local, 1, one); err != nil {
					t.Errorf("local writer: %v", err)
				}
			}),
		})
		if writerV != 2 {
			t.Fatalf("local writer published v%d, want v2 (it must win the race)", writerV)
		}
		if !errors.Is(importErr, ErrSequenceGap) {
			t.Fatalf("racing import: err = %v, want ErrSequenceGap", importErr)
		}
		// The version the import published under the wrong number is
		// withdrawn: the writer's commit stays the newest.
		if latest, err := down.VM.Latest(ctx, local); err != nil || latest != writerV {
			t.Fatalf("Latest after the failed import: (v%d, %v), want v%d", latest, err, writerV)
		}

		steps := fab.Env().Steps()
		v, err := blob.NewClient(down).WriteChunks(ctx, local, writerV, one)
		if err != nil {
			t.Fatalf("commit after the failed import: %v", err)
		}
		if v <= writerV {
			t.Fatalf("commit after the failed import published v%d, want > v%d", v, writerV)
		}
		if n := fab.Env().Steps() - steps; n > 10_000 {
			t.Fatalf("commit after the failed import took %d sim steps", n)
		}
	})
}
