package mirror

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// TestWriteBehindRuns pins the cost of the mirror's write-back on the
// simulated fabric. The image lives on providers 1 and 2 and the mirror
// on node 0, so node 0's disk does nothing but the write-back and the
// modification metadata Close writes. Every case reads
// Sim.Disk(0).BusyTime, which for a processor-sharing disk is exactly the
// work charged over the disk's bandwidth.
func TestWriteBehindRuns(t *testing.T) {
	const chunk = 64 << 10
	const chunks = 16
	cases := []struct {
		name   string
		buffer int64      // WriteBuffer; 0 keeps the default
		reads  [][2]int64 // chunk ranges [lo,hi), read in order
		seeks  int        // write-back ops, Close's metadata write excluded
	}{
		{"adjacent fetches are one run", 0,
			[][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 1},
		{"non-adjacent fetches are one run each", 0,
			[][2]int64{{0, 1}, {2, 3}, {4, 5}, {6, 7}}, 4},
		{"a run stops at half the write buffer", 4 * chunk,
			[][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}, 3},
		{"ranged and short fetches", 0,
			[][2]int64{{0, 3}, {3, 4}, {8, 9}, {9, 12}, {chunks - 1, chunks}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.DefaultConfig(3)
			if tc.buffer > 0 {
				cfg.WriteBuffer = tc.buffer
			}
			// The last chunk is short, so a run's bytes are not a
			// multiple of the chunk size.
			fab, mod, id, v := newWriteBackRig(t, cfg, chunks*chunk-1000, chunk)
			disk := fab.Disk(0)
			var before float64
			var st Stats
			fab.Run(func(ctx *cluster.Ctx) {
				im, err := mod.Open(ctx, id, v, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				before = disk.BusyTime
				for _, r := range tc.reads {
					if err := im.Read(ctx, r[0]*chunk, (r[1]-r[0])*chunk-max(0, r[1]*chunk-im.Size())); err != nil {
						t.Fatal(err)
					}
				}
				st = im.Stats()
				im.Close(ctx)
			})
			seek := cfg.DiskSeek * cfg.DiskBandwidth
			meta := float64(chunks*16) + seek // Close's metadata write
			charged := (disk.BusyTime-before)*cfg.DiskBandwidth - meta - float64(tc.seeks)*seek
			if math.Abs(charged-float64(st.RemoteBytesFetched)) > 1e-3 {
				ops := ((disk.BusyTime-before)*cfg.DiskBandwidth - meta - float64(st.RemoteBytesFetched)) / seek
				t.Fatalf("disk charged %.1f bytes beside %d seeks, want the %d bytes fetched (%.2f seeks charged)",
					charged, tc.seeks, st.RemoteBytesFetched, ops)
			}
		})
	}
	t.Run("a gap fill that lands after Close writes its own run back", func(t *testing.T) {
		cfg := cluster.DefaultConfig(3)
		fab, mod, id, v := newWriteBackRig(t, cfg, chunks*chunk, chunk)
		disk := fab.Disk(0)
		var before float64
		var im *Image
		fab.Run(func(ctx *cluster.Ctx) {
			var err error
			if im, err = mod.Open(ctx, id, v, false); err != nil {
				t.Fatalf("open: %v", err)
			}
			before = disk.BusyTime
			// A write inside chunk 5 leaves it dirty but not mirrored,
			// so the commit gap-fills it; Close lands mid-fetch.
			if err := im.Write(ctx, 5*chunk+100, 100); err != nil {
				t.Fatal(err)
			}
			commit := ctx.Go("commit", 0, func(cc *cluster.Ctx) { im.Commit(cc) })
			ctx.Sleep(1e-4)
			im.Close(ctx)
			ctx.Wait(commit)
		})
		st := im.Stats()
		if st.GapFills != 0 || st.RemoteBytesFetched != chunk {
			t.Fatalf("stats %+v, want the one chunk the commit's gap fill fetched", st)
		}
		seek := cfg.DiskSeek * cfg.DiskBandwidth
		want := float64(chunks*16) + seek + // Close's metadata write
			100 + seek + // the guest write
			chunk + seek // the gap fill's run, written back by the fetch itself
		if got := (disk.BusyTime - before) * cfg.DiskBandwidth; math.Abs(got-want) > 1e-3 {
			t.Fatalf("disk charged %.1f, want %.1f", got, want)
		}
	})
}

// newWriteBackRig uploads a real image of the given size to providers 1
// and 2 (version manager on 1) and returns a module for node 0.
func newWriteBackRig(t *testing.T, cfg cluster.Config, size int64, chunk int) (*cluster.Sim, *Module, blob.ID, blob.Version) {
	t.Helper()
	fab := cluster.NewSim(cfg)
	sys := blob.NewSystem([]cluster.NodeID{1, 2}, 1, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		if id, err = c.Create(ctx, size, chunk); err != nil {
			t.Fatalf("create: %v", err)
		}
		if v, err = c.WriteAt(ctx, id, 0, make([]byte, size), 0); err != nil {
			t.Fatalf("upload: %v", err)
		}
	})
	return fab, NewModule(0, blob.NewClient(sys)), id, v
}

// TestWriteBehindRunsRace races a commit against guest reads of the same
// image on the live fabric. In even rounds the commit gap-fills, and both
// activities extend and write back the one pending run; in odd rounds the
// dirty chunks are whole, so the commit publishes at once and overwrites
// the image's chunk map while the guest fetches the chunks between them
// by it. Under -race it checks that the run and the map are handed over
// under the image lock: the guest reads what it wrote and the base
// elsewhere, and after Close the bytes written back equal the bytes
// fetched, so no run was lost or written back twice.
func TestWriteBehindRunsRace(t *testing.T) {
	const size, chunk = 128 << 10, 4 << 10
	var written atomic.Int64
	orig := diskWriteIdle
	diskWriteIdle = func(ctx *cluster.Ctx, node cluster.NodeID, n int64) {
		written.Add(n)
		orig(ctx, node, n)
	}
	t.Cleanup(func() { diskWriteIdle = orig })
	for round := 0; round < 20; round++ {
		rig := newRig(t, 4, size, chunk)
		written.Store(0)
		want := bytes.Clone(rig.base)
		rig.run(t, func(ctx *cluster.Ctx) {
			im := rig.open(t, ctx, 0)
			// A few bytes in the middle of every third chunk leave it
			// dirty but not mirrored, so the commit gap-fills it; in odd
			// rounds the whole chunk is written.
			mark, at := []byte{0xEE, 0xEE}, int64(chunk/2)
			if round%2 == 1 {
				mark, at = bytes.Repeat([]byte{0xEE}, chunk), 0
			}
			for ci := int64(round % 3); ci < size/chunk; ci += 3 {
				off := ci*chunk + at
				if _, err := im.WriteAt(ctx, mark, off); err != nil {
					t.Fatal(err)
				}
				copy(want[off:], mark)
			}
			var commitErr error
			commit := ctx.Go("commit", 0, func(cc *cluster.Ctx) { _, commitErr = im.Commit(cc) })
			got := make([]byte, size)
			for off := int64(0); off < size; off += chunk {
				if _, err := im.ReadAt(ctx, got[off:off+chunk], off); err != nil {
					t.Fatal(err)
				}
			}
			ctx.Wait(commit)
			if commitErr != nil {
				t.Fatalf("commit: %v", commitErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("guest reads racing the gap fills saw wrong bytes")
			}
			st := im.Stats()
			im.Close(ctx)
			if w := written.Load(); w != st.RemoteBytesFetched {
				t.Fatalf("round %d: wrote back %d bytes, fetched %d", round, w, st.RemoteBytesFetched)
			}
		})
	}
}

// TestWriteBackPriority pins which write-back a read on the mirror's
// node waits behind. A fetched run is a clean copy of what the
// repository stores, so its write-back yields the disk: a read of one
// chunk there, as a provider co-located with the mirror serves it, takes
// one seek plus one chunk. A guest write is the only copy of its bytes,
// so its write-back shares the disk with that read.
func TestWriteBackPriority(t *testing.T) {
	const chunk = 64 << 10
	cfg := cluster.DefaultConfig(3)
	alone := cfg.DiskSeek + chunk/cfg.DiskBandwidth
	for _, tc := range []struct {
		name string
		load func(*cluster.Ctx, *Image) error
		want float64
	}{
		{"a fetched run waits", func(ctx *cluster.Ctx, im *Image) error {
			// The second fetch is not adjacent: it writes the first
			// run, four chunks, back.
			if err := im.Read(ctx, 0, 4*chunk); err != nil {
				return err
			}
			return im.Read(ctx, 8*chunk, chunk)
		}, alone},
		{"a guest write shares", func(ctx *cluster.Ctx, im *Image) error {
			return im.Write(ctx, 0, 4*chunk)
		}, 2 * alone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, mod, id, v := newWriteBackRig(t, cfg, 16*chunk, chunk)
			var took float64
			fab.Run(func(ctx *cluster.Ctx) {
				im, err := mod.Open(ctx, id, v, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if err := tc.load(ctx, im); err != nil {
					t.Fatal(err)
				}
				start := ctx.Now()
				ctx.DiskRead(0, chunk)
				took = ctx.Now() - start
				im.Close(ctx)
			})
			if math.Abs(took-tc.want) > 1e-9 {
				t.Fatalf("read of one chunk took %.6f s, want %.6f", took, tc.want)
			}
		})
	}
}
