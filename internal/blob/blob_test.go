package blob

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"blobvfs/internal/cluster"
)

// liveSystem deploys a System over a live fabric of n nodes with the
// version manager on node 0 and all nodes as providers.
func liveSystem(n, replicas int) (*cluster.Live, *System) {
	fab := cluster.NewLive(n)
	provs := make([]cluster.NodeID, n)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	return fab, NewSystem(provs, 0, replicas)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7)
	}
	return b
}

func TestCreateWriteRead(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, err := c.Create(ctx, 1<<20, 64<<10)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		data := pattern(1<<20, 3)
		v, err := c.WriteAt(ctx, id, 0, data, 0)
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if v != 1 {
			t.Fatalf("first version = %d, want 1", v)
		}
		got := make([]byte, 1<<20)
		if err := c.ReadAt(ctx, id, v, got, 0); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read back != written")
		}
	})
}

func TestUnalignedWritesReadModifyWrite(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 1000, 100)
		base := pattern(1000, 1)
		v1, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite [150, 370): crosses three chunks, none aligned.
		patch := pattern(220, 9)
		v2, err := c.WriteAt(ctx, id, v1, patch, 150)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), base...)
		copy(want[150:], patch)
		got := make([]byte, 1000)
		if err := c.ReadAt(ctx, id, v2, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("v2 contents wrong after unaligned overwrite")
		}
		// v1 unchanged (shadowing).
		if err := c.ReadAt(ctx, id, v1, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("v1 changed by later write")
		}
	})
}

func TestSparseReadsAsZeros(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 500, 100)
		// Write only chunk 2.
		v, err := c.WriteChunks(ctx, id, 0, []ChunkWrite{{Index: 2, Payload: RealPayload(pattern(100, 5))}})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 500)
		if err := c.ReadAt(ctx, id, v, got, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if got[i] != 0 {
				t.Fatalf("byte %d = %d, want 0 (sparse)", i, got[i])
			}
		}
		if !bytes.Equal(got[200:300], pattern(100, 5)) {
			t.Fatal("written chunk wrong")
		}
		for i := 300; i < 500; i++ {
			if got[i] != 0 {
				t.Fatalf("byte %d = %d, want 0 (sparse)", i, got[i])
			}
		}
	})
}

func TestCloneSharesContentAndDiverges(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		base := pattern(400, 2)
		v1, _ := c.WriteAt(ctx, id, 0, base, 0)

		chunksBefore := sys.Providers.ChunkCount()
		clone, err := c.Clone(ctx, id, v1)
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		if sys.Providers.ChunkCount() != chunksBefore {
			t.Fatal("clone duplicated chunk data")
		}
		cv, err := c.Latest(ctx, clone)
		if err != nil || cv != 1 {
			t.Fatalf("clone latest = %d,%v; want 1", cv, err)
		}
		got := make([]byte, 400)
		if err := c.ReadAt(ctx, clone, 1, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("clone contents differ from source")
		}
		// Diverge the clone; the original must not change.
		patch := pattern(100, 77)
		cv2, err := c.WriteAt(ctx, clone, 1, patch, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ReadAt(ctx, clone, cv2, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[100:200], patch) {
			t.Fatal("clone write lost")
		}
		if err := c.ReadAt(ctx, id, v1, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("source changed by clone write")
		}
	})
}

func TestSnapshotsShareUnmodifiedChunks(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		const size, cs = 10 << 20, 256 << 10 // 40 chunks
		id, _ := c.Create(ctx, size, cs)
		v := Version(0)
		var err error
		v, err = c.WriteFull(ctx, id, v, 1)
		if err != nil {
			t.Fatal(err)
		}
		full := sys.Providers.ChunkCount()
		// Ten successive 1-chunk snapshots: storage grows by 1 chunk each.
		for i := 0; i < 10; i++ {
			v, err = c.WriteChunks(ctx, id, v, []ChunkWrite{
				{Index: int64(i), Payload: SyntheticPayload(cs, uint64(100+i))},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.Providers.ChunkCount(); got != full+10 {
			t.Fatalf("chunk count = %d, want %d (one new chunk per snapshot)", got, full+10)
		}
		if pub := sys.VM.Published(id); pub != 11 {
			t.Fatalf("published versions = %d, want 11", pub)
		}
	})
}

func TestWriteChunksValidation(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		if _, err := c.WriteChunks(ctx, id, 0, nil); err == nil {
			t.Error("empty write set accepted")
		}
		if _, err := c.WriteChunks(ctx, id, 0, []ChunkWrite{{Index: 4, Payload: SyntheticPayload(100, 0)}}); err == nil {
			t.Error("out-of-range chunk accepted")
		}
		if _, err := c.WriteChunks(ctx, id, 0, []ChunkWrite{
			{Index: 1, Payload: SyntheticPayload(100, 0)},
			{Index: 1, Payload: SyntheticPayload(100, 1)},
		}); err == nil {
			t.Error("duplicate chunk accepted")
		}
		if _, err := c.WriteChunks(ctx, id, 0, []ChunkWrite{{Index: 0, Payload: SyntheticPayload(200, 0)}}); err == nil {
			t.Error("oversized payload accepted")
		}
	})
}

func TestReadValidation(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		v, _ := c.WriteFull(ctx, id, 0, 1)
		buf := make([]byte, 100)
		if err := c.ReadAt(ctx, id, v, buf, 350); err == nil {
			t.Error("read past end accepted")
		}
		if err := c.ReadAt(ctx, id, v, buf, -1); err == nil {
			t.Error("negative offset accepted")
		}
		if err := c.ReadAt(ctx, id, v+1, buf, 0); err == nil {
			t.Error("unknown version accepted")
		}
		if err := c.ReadAt(ctx, 999, 1, buf, 0); err == nil {
			t.Error("unknown blob accepted")
		}
		if err := c.ReadAt(ctx, id, v, nil, 0); err != nil {
			t.Errorf("zero-length read failed: %v", err)
		}
	})
}

func TestVersionTotalOrderUnderConcurrentCommits(t *testing.T) {
	// Many goroutines commit to the same blob concurrently on the live
	// fabric; published versions must be a gapless sequence and every
	// version must be readable.
	fab, sys := liveSystem(8, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 1<<20, 64<<10)
		v1, _ := c.WriteFull(ctx, id, 0, 1)
		const writers = 16
		var tasks []cluster.Task
		for w := 0; w < writers; w++ {
			w := w
			tasks = append(tasks, ctx.Go("w", cluster.NodeID(w%8), func(cc *cluster.Ctx) {
				cw := NewClient(sys)
				_, err := cw.WriteChunks(cc, id, v1, []ChunkWrite{
					{Index: int64(w), Payload: SyntheticPayload(64<<10, uint64(w))},
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}))
		}
		ctx.WaitAll(tasks)
		if pub := sys.VM.Published(id); pub != 1+writers {
			t.Fatalf("published = %d, want %d", pub, 1+writers)
		}
		for v := Version(1); v <= Version(1+writers); v++ {
			if _, err := sys.VM.Root(ctx, id, v); err != nil {
				t.Fatalf("version %d unreadable: %v", v, err)
			}
		}
	})
}

func TestReplicationSurvivesProviderFailure(t *testing.T) {
	fab, sys := liveSystem(4, 2)
	lv := cluster.NewLiveness(4)
	sys.Providers.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 1<<20, 64<<10)
		data := pattern(1<<20, 8)
		v, err := c.WriteAt(ctx, id, 0, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Kill two non-adjacent providers; every chunk keeps >= 1 replica
		// because replicas land on consecutive nodes.
		lv.Kill(ctx, 0)
		lv.Kill(ctx, 2)
		got := make([]byte, 1<<20)
		if err := c.ReadAt(ctx, id, v, got, 0); err != nil {
			t.Fatalf("read after failures: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted after provider failure")
		}
	})
}

func TestNoReplicationFailsAfterProviderLoss(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	lv := cluster.NewLiveness(2)
	sys.Providers.SetLiveness(lv)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 200, 100)
		v, _ := c.WriteAt(ctx, id, 0, pattern(200, 1), 0)
		lv.Kill(ctx, 0)
		lv.Kill(ctx, 1)
		buf := make([]byte, 200)
		if err := c.ReadAt(ctx, id, v, buf, 0); err == nil {
			t.Fatal("read succeeded with all providers dead")
		}
		lv.Revive(ctx, 0)
		lv.Revive(ctx, 1)
		if err := c.ReadAt(ctx, id, v, buf, 0); err != nil {
			t.Fatalf("read after revival: %v", err)
		}
	})
}

func TestRoundRobinPlacementSpreadsChunks(t *testing.T) {
	ps := NewProviderSet([]cluster.NodeID{0, 1, 2, 3}, 1)
	counts := make(map[cluster.NodeID]int)
	for i := 0; i < 400; i++ {
		key := ps.AllocPending(1)
		counts[ps.Replicas(key)[0]]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("provider %d holds %d primaries, want 100 (round-robin)", n, c)
		}
	}
}

func TestReplicasAreDistinctNodes(t *testing.T) {
	ps := NewProviderSet([]cluster.NodeID{0, 1, 2, 3, 4}, 3)
	for i := 0; i < 50; i++ {
		reps := ps.Replicas(ps.AllocPending(1))
		seen := map[cluster.NodeID]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("replica list %v has duplicates", reps)
			}
			seen[r] = true
		}
	}
}

// TestBlobMatchesReferenceModel is the package's end-to-end property
// test: random interleavings of WriteAt/Clone against a flat reference
// of full image contents per (blob, version).
func TestBlobMatchesReferenceModel(t *testing.T) {
	type wop struct {
		Off, Len uint16
		Seed     byte
		Clone    bool
	}
	const size, cs = 4096, 512
	f := func(ops []wop) bool {
		fab, sys := liveSystem(3, 1)
		ok := true
		fab.Run(func(ctx *cluster.Ctx) {
			c := NewClient(sys)
			type snap struct {
				id  ID
				v   Version
				img []byte
			}
			id0, err := c.Create(ctx, size, cs)
			if err != nil {
				ok = false
				return
			}
			v0, err := c.WriteAt(ctx, id0, 0, pattern(size, 0), 0)
			if err != nil {
				ok = false
				return
			}
			snaps := []snap{{id0, v0, pattern(size, 0)}}
			heads := map[ID]snap{id0: snaps[0]}
			for _, o := range ops {
				if len(snaps) > 24 {
					break
				}
				if o.Clone {
					src := snaps[int(o.Seed)%len(snaps)]
					nid, err := c.Clone(ctx, src.id, src.v)
					if err != nil {
						ok = false
						return
					}
					ns := snap{nid, 1, append([]byte(nil), src.img...)}
					snaps = append(snaps, ns)
					heads[nid] = ns
					continue
				}
				// Pick a blob head and overwrite a random range.
				var hs []snap
				for _, h := range heads {
					hs = append(hs, h)
				}
				// map order: normalize by choosing min id for determinism
				// of the test body itself (quick feeds the randomness).
				hmin := hs[0]
				for _, h := range hs {
					if h.id < hmin.id {
						hmin = h
					}
				}
				h := hmin
				off := int64(o.Off) % size
				l := int(o.Len)%1024 + 1
				if off+int64(l) > size {
					l = int(size - off)
				}
				data := pattern(l, o.Seed|1)
				nv, err := c.WriteAt(ctx, h.id, h.v, data, off)
				if err != nil {
					ok = false
					return
				}
				img := append([]byte(nil), h.img...)
				copy(img[off:], data)
				ns := snap{h.id, nv, img}
				snaps = append(snaps, ns)
				heads[h.id] = ns
			}
			// Verify every snapshot ever taken, in full.
			buf := make([]byte, size)
			for _, s := range snaps {
				if err := c.ReadAt(ctx, s.id, s.v, buf, 0); err != nil {
					ok = false
					return
				}
				if !bytes.Equal(buf, s.img) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestErrNotFoundMessage(t *testing.T) {
	err := notFound("blob", ID(7))
	if err.Error() != "blob: blob 7 not found" {
		t.Fatalf("message = %q", err.Error())
	}
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatal("not a *NotFoundError")
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatal("does not unwrap to ErrNotFound")
	}
}

func TestSimFabricSmokeTest(t *testing.T) {
	// The full blob stack on the sim fabric: 16 nodes concurrently read
	// a striped image; time must advance and traffic must be counted.
	cfg := cluster.DefaultConfig(16)
	fab := cluster.NewSim(cfg)
	provs := make([]cluster.NodeID, 16)
	for i := range provs {
		provs[i] = cluster.NodeID(i)
	}
	sys := NewSystem(provs, 0, 1)
	const size = 64 << 20
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, size, 256<<10)
		v, err := c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		upload := ctx.Now()
		if upload <= 0 {
			t.Fatal("upload took no virtual time")
		}
		var tasks []cluster.Task
		for n := 0; n < 16; n++ {
			node := cluster.NodeID(n)
			tasks = append(tasks, ctx.Go("reader", node, func(cc *cluster.Ctx) {
				rc := NewClient(sys)
				if _, err := rc.FetchChunks(cc, id, v, 0, 64); err != nil {
					t.Errorf("fetch: %v", err)
				}
			}))
		}
		ctx.WaitAll(tasks)
	})
	if fab.NetTraffic() <= size {
		t.Fatalf("traffic = %d, want > image size %d", fab.NetTraffic(), size)
	}
	if fab.Now() <= 0 {
		t.Fatal(fmt.Sprintf("virtual clock = %v, want > 0", fab.Now()))
	}
}

// TestHerdSharesAppendToTheProviderLog: sixteen committers each put a
// 1 MiB share on one provider at the same instant. The shares land in
// the provider's log back to back, so its disk serves their bytes and
// a single seek, not a seek per share.
func TestHerdSharesAppendToTheProviderLog(t *testing.T) {
	const committers, share = 16, 1 << 20
	cfg := cluster.DefaultConfig(committers + 1)
	fab := cluster.NewSim(cfg)
	ps := NewProviderSet([]cluster.NodeID{0}, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		var tasks []cluster.Task
		for i := 1; i <= committers; i++ {
			key := ChunkKey(i)
			tasks = append(tasks, ctx.Go("committer", cluster.NodeID(i), func(cc *cluster.Ctx) {
				if err := putOne(cc, ps, key, SyntheticPayload(share, uint64(key))); err != nil {
					t.Errorf("chunk %d: %v", key, err)
				}
			}))
		}
		ctx.WaitAll(tasks)
	})
	want := float64(committers*share) + cfg.DiskSeek*cfg.DiskBandwidth
	if got := fab.Disk(0).Served; math.Abs(got-want) > 1 {
		t.Fatalf("provider disk served %.0f units, want %.0f (16 MiB and one seek)", got, want)
	}
}
