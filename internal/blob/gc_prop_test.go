package blob

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blobvfs/internal/cluster"
)

// This file holds the garbage collector's property-based invariant
// tests, in the spirit of internal/sim/invariants_test.go: instead of
// hand-picked scenarios, randomized op sequences drive the real stack
// on the live fabric against a flat reference model, and after every
// collection two invariants are checked:
//
//  1. Safety — no chunk reachable from a live version is ever
//     reclaimed: every live snapshot still resolves, its tree yields
//     exactly the model's chunk map, and every mapped chunk is still
//     stored.
//  2. Liveness — every unreachable chunk is eventually reclaimed: a
//     quiescent Collect leaves exactly the union of the live
//     versions' chunk references retained, and exactly the marked
//     tree nodes stored.

// propVersion is the flat reference model of one published snapshot:
// chunk index → key (0 = sparse).
type propVersion map[int64]ChunkKey

// propBlob models one blob lineage.
type propBlob struct {
	id       ID
	chunks   int64
	versions map[Version]propVersion
	retired  map[Version]bool
}

func (pb *propBlob) latest() Version {
	for v := Version(len(pb.versions)); v >= 1; v-- {
		if !pb.retired[v] {
			return v
		}
	}
	return 0
}

// liveRefs collects every chunk key reachable from the blob's live
// versions into out.
func (pb *propBlob) liveRefs(out map[ChunkKey]bool) {
	for v, m := range pb.versions {
		if pb.retired[v] {
			continue
		}
		for _, key := range m {
			if key != 0 {
				out[key] = true
			}
		}
	}
}

// checkLiveVersions verifies invariant 1 for every live version of
// every model blob.
func checkLiveVersions(t *testing.T, ctx *cluster.Ctx, c *Client, blobs []*propBlob) {
	t.Helper()
	for _, pb := range blobs {
		for v, want := range pb.versions {
			if pb.retired[v] {
				continue
			}
			root, err := c.sys.VM.Root(ctx, pb.id, v)
			if err != nil {
				t.Fatalf("live version %d@%d unresolvable: %v", pb.id, v, err)
			}
			inf, err := c.Info(ctx, pb.id)
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := CollectLeaves(c.sys.Meta.Getter(ctx), root, inf.Span, 0, pb.chunks)
			if err != nil {
				t.Fatalf("live version %d@%d tree walk: %v (GC freed shared metadata?)", pb.id, v, err)
			}
			for _, lf := range leaves {
				if lf.Chunk != want[lf.Index] {
					t.Fatalf("version %d@%d chunk %d: key %d, model %d",
						pb.id, v, lf.Index, lf.Chunk, want[lf.Index])
				}
				if lf.Chunk == 0 {
					continue
				}
				if _, ok := c.sys.Providers.Peek(lf.Chunk); !ok {
					t.Fatalf("version %d@%d chunk %d (key %d) reclaimed while reachable",
						pb.id, v, lf.Index, lf.Chunk)
				}
			}
		}
	}
}

// TestGCRandomLifecycleInvariants drives randomized sequences of
// write/clone/retire/collect and checks both invariants after every
// collection.
func TestGCRandomLifecycleInvariants(t *testing.T) {
	const (
		trials   = 30
		steps    = 60
		chunks   = 8
		csize    = 64
		maxBlobs = 5
	)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			fab, sys := liveSystem(4, 1)
			gc := NewCollector(sys)
			fab.Run(func(ctx *cluster.Ctx) {
				c := NewClient(sys)
				var blobs []*propBlob

				newBlob := func() *propBlob {
					id, err := c.Create(ctx, chunks*csize, csize)
					if err != nil {
						t.Fatal(err)
					}
					pb := &propBlob{
						id:       id,
						chunks:   chunks,
						versions: make(map[Version]propVersion),
						retired:  make(map[Version]bool),
					}
					blobs = append(blobs, pb)
					return pb
				}
				write := func(pb *propBlob) {
					base := pb.latest()
					n := 1 + rng.Intn(chunks)
					perm := rng.Perm(chunks)[:n]
					writes := make([]ChunkWrite, n)
					for i, ci := range perm {
						writes[i] = ChunkWrite{
							Index:   int64(ci),
							Payload: RealPayload(pattern(csize, byte(rng.Intn(4)))),
						}
					}
					v, keyOf, err := c.WriteChunksKeyed(ctx, pb.id, base, writes)
					if err != nil {
						t.Fatal(err)
					}
					m := make(propVersion, chunks)
					for k, key := range pb.versions[base] {
						m[k] = key
					}
					for idx, key := range keyOf {
						m[idx] = key
					}
					pb.versions[v] = m
				}
				clone := func(pb *propBlob, v Version) {
					id, err := c.Clone(ctx, pb.id, v)
					if err != nil {
						t.Fatal(err)
					}
					cp := &propBlob{
						id:       id,
						chunks:   chunks,
						versions: make(map[Version]propVersion),
						retired:  make(map[Version]bool),
					}
					m := make(propVersion, chunks)
					for k, key := range pb.versions[v] {
						m[k] = key
					}
					cp.versions[1] = m
					blobs = append(blobs, cp)
				}
				retire := func(pb *propBlob, v Version) {
					if err := sys.VM.Retire(ctx, pb.id, v); err != nil {
						t.Fatalf("Retire(%d@%d): %v", pb.id, v, err)
					}
					pb.retired[v] = true
				}
				collect := func() {
					rep, err := gc.Collect(ctx)
					if err != nil {
						t.Fatalf("Collect: %v", err)
					}
					if rep.Skipped {
						t.Fatal("sequential Collect skipped")
					}
					// Invariant 1: nothing live was touched.
					checkLiveVersions(t, ctx, c, blobs)
					// Invariant 2: everything unreachable is gone. The
					// run is quiescent, so the retained key set must
					// equal the union of live references, and the node
					// count must equal the marked set.
					want := make(map[ChunkKey]bool)
					for _, pb := range blobs {
						pb.liveRefs(want)
					}
					keyWM, _ := sys.Providers.PendingSnapshot()
					got := sys.Providers.RetainedKeys(keyWM)
					if len(got) != len(want) {
						t.Fatalf("retained %d keys, model has %d live refs", len(got), len(want))
					}
					for _, key := range got {
						if !want[key] {
							t.Fatalf("key %d retained but unreachable", key)
						}
					}
					if n := sys.Meta.NodeCount(); n != rep.MarkedNodes {
						t.Fatalf("%d nodes stored after GC, %d marked", n, rep.MarkedNodes)
					}
				}

				newBlob()
				for step := 0; step < steps; step++ {
					pb := blobs[rng.Intn(len(blobs))]
					switch op := rng.Intn(10); {
					case op < 4: // write a new version
						write(pb)
					case op < 5 && len(blobs) < maxBlobs: // clone a live version
						if v := pb.latest(); v > 0 {
							clone(pb, v)
						}
					case op < 8: // retire a random live version
						var live []Version
						for v := range pb.versions {
							if !pb.retired[v] {
								live = append(live, v)
							}
						}
						if len(live) > 0 {
							retire(pb, live[rng.Intn(len(live))])
						}
					default:
						collect()
					}
				}
				collect() // final quiescent cycle checks both invariants
			})
		})
	}
}

// TestGCConcurrentChurnInvariants runs writer activities (each
// committing on its own lineage and retiring everything but its two
// newest versions) concurrently with a continuously running collector
// on the live fabric, then verifies no surviving snapshot lost a byte.
// Under -race this also exercises the lifecycle locks.
func TestGCConcurrentChurnInvariants(t *testing.T) {
	const (
		workers = 4
		rounds  = 12
		chunks  = 8
		csize   = 128
	)
	fab, sys := liveSystem(workers, 1)
	gc := NewCollector(sys)
	var wg sync.WaitGroup
	type result struct {
		id      ID
		version Version
		want    []byte
	}
	results := make([]result, workers)

	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		baseData := pattern(chunks*csize, 7)
		baseID, err := c.Create(ctx, chunks*csize, csize)
		if err != nil {
			t.Fatal(err)
		}
		baseV, err := c.WriteAt(ctx, baseID, 0, baseData, 0)
		if err != nil {
			t.Fatal(err)
		}

		done := make(chan struct{})
		var tasks []cluster.Task
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			tasks = append(tasks, ctx.Go("churn", cluster.NodeID(w), func(cc *cluster.Ctx) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(77 + w)))
				wc := NewClient(sys)
				id, err := wc.Clone(cc, baseID, baseV)
				if err != nil {
					t.Error(err)
					return
				}
				shadow := append([]byte(nil), baseData...)
				v := Version(1)
				for r := 0; r < rounds; r++ {
					n := 1 + rng.Intn(3)
					writes := make([]ChunkWrite, 0, n)
					seen := map[int64]bool{}
					for i := 0; i < n; i++ {
						ci := int64(rng.Intn(chunks))
						if seen[ci] {
							continue
						}
						seen[ci] = true
						data := pattern(csize, byte(w*16+r))
						copy(shadow[ci*csize:], data)
						writes = append(writes, ChunkWrite{Index: ci, Payload: RealPayload(data)})
					}
					nv, err := wc.WriteChunks(cc, id, v, writes)
					if err != nil {
						t.Errorf("worker %d round %d: %v", w, r, err)
						return
					}
					v = nv
					// Keep the two newest versions, retire the rest.
					if v > 2 {
						if _, err := sys.VM.RetireUpTo(cc, id, v-2); err != nil {
							t.Errorf("worker %d retire: %v", w, err)
							return
						}
					}
					// Read a random range of the newest version back and
					// compare against the shadow while GC churns.
					lo := rng.Intn(chunks * csize)
					ln := 1 + rng.Intn(chunks*csize-lo)
					buf := make([]byte, ln)
					if err := wc.ReadAt(cc, id, v, buf, int64(lo)); err != nil {
						t.Errorf("worker %d read: %v", w, err)
						return
					}
					for i := range buf {
						if buf[i] != shadow[lo+i] {
							t.Errorf("worker %d: live read diverged at byte %d", w, lo+i)
							return
						}
					}
				}
				results[w] = result{id: id, version: v, want: append([]byte(nil), shadow...)}
			}))
		}
		collector := ctx.Go("gc", 0, func(cc *cluster.Ctx) {
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := gc.Collect(cc); err != nil {
					t.Errorf("concurrent Collect: %v", err)
					return
				}
			}
		})
		wg.Wait()
		close(done)
		ctx.Wait(collector)
		for _, task := range tasks {
			ctx.Wait(task)
		}

		// Quiesced: a final cycle must leave every survivor intact.
		if _, err := gc.Collect(ctx); err != nil {
			t.Fatal(err)
		}
		for w, res := range results {
			if res.id == 0 {
				continue // worker failed above; already reported
			}
			got := make([]byte, chunks*csize)
			if err := c.ReadAt(ctx, res.id, res.version, got, 0); err != nil {
				t.Fatalf("worker %d final read: %v", w, err)
			}
			for i := range got {
				if got[i] != res.want[i] {
					t.Fatalf("worker %d: surviving snapshot corrupted at byte %d", w, i)
				}
			}
		}
	})
}
