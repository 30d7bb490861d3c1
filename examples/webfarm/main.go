// Webfarm exercises the read-your-writes access pattern of the
// paper's §2.3 and §5.4: a fleet of virtualized web servers, each
// appending request logs and maintaining an object cache inside its
// VM image, with periodic global snapshots of the whole deployment
// (checkpointing, §3.2). All instances mirror the same base image;
// each snapshot stores only that instance's modifications. At the
// end, keep-last-K retention retires the older snapshot rounds and a
// garbage-collection cycle reclaims the storage only they referenced.
//
// Run with: go run ./examples/webfarm [-servers 6] [-requests 200]
package main

import (
	"flag"
	"fmt"
	"log"

	"blobvfs"
)

const (
	imageSize = 2 << 20
	logOff    = 1 << 20 // log region inside the image
	cacheOff  = 1536 << 10
)

func main() {
	servers := flag.Int("servers", 6, "number of web server instances")
	requests := flag.Int("requests", 200, "requests handled per server")
	rounds := flag.Int("snapshots", 3, "global snapshot rounds")
	keep := flag.Int("keep", 1, "keep-last-K retention window applied at the end")
	flag.Parse()
	if *keep < 0 {
		log.Fatalf("-keep %d: the retention window cannot be negative", *keep)
	}

	fab := blobvfs.NewLiveCluster(*servers)
	repo, err := blobvfs.Open(fab, blobvfs.WithChunkSize(32<<10))
	if err != nil {
		log.Fatal(err)
	}

	fab.Run(func(ctx *blobvfs.Ctx) {
		base := make([]byte, imageSize)
		copy(base, "web-server-os-image")
		ref, err := repo.Create(ctx, "webserver", base)
		if err != nil {
			log.Fatal(err)
		}

		// Launch the farm: one instance per node.
		disks := make([]*blobvfs.Disk, *servers)
		var boot []blobvfs.Task
		for s := 0; s < *servers; s++ {
			s := s
			boot = append(boot, ctx.Go("server", blobvfs.NodeID(s), func(cc *blobvfs.Ctx) {
				disk, err := repo.OpenDisk(cc, blobvfs.NodeID(s), ref)
				if err != nil {
					log.Fatal(err)
				}
				disks[s] = disk
			}))
		}
		ctx.WaitAll(boot)

		// Serve traffic with periodic global snapshots.
		for round := 1; round <= *rounds; round++ {
			var serve []blobvfs.Task
			for s := 0; s < *servers; s++ {
				s := s
				serve = append(serve, ctx.Go("traffic", blobvfs.NodeID(s), func(cc *blobvfs.Ctx) {
					disk := disks[s]
					logPos := int64(logOff)
					for r := 0; r < *requests; r++ {
						// Append a log line...
						line := []byte(fmt.Sprintf("srv%d round%d req%04d GET /item/%d\n", s, round, r, r%17))
						if _, err := disk.WriteAt(cc, line, logPos); err != nil {
							log.Fatal(err)
						}
						logPos += int64(len(line))
						// ...update the object cache...
						entry := []byte(fmt.Sprintf("obj-%02d:v%d", r%13, round))
						if _, err := disk.WriteAt(cc, entry, cacheOff+int64(r%13)*64); err != nil {
							log.Fatal(err)
						}
						// ...and read our own cache back (read-your-writes).
						got := make([]byte, len(entry))
						if _, err := disk.ReadAt(cc, got, cacheOff+int64(r%13)*64); err != nil {
							log.Fatal(err)
						}
						if string(got) != string(entry) {
							log.Fatalf("read-your-writes violated: %q != %q", got, entry)
						}
					}
				}))
			}
			ctx.WaitAll(serve)

			// Global snapshot: CLONE (first round) then COMMIT on every
			// instance, concurrently — the multisnapshotting pattern.
			var snap []blobvfs.Task
			for s := 0; s < *servers; s++ {
				s := s
				snap = append(snap, ctx.Go("snapshot", blobvfs.NodeID(s), func(cc *blobvfs.Ctx) {
					fresh := disks[s].Image() == ref.Image
					r, err := repo.Snapshot(cc, disks[s], fresh)
					if err != nil {
						log.Fatal(err)
					}
					repo.Tag(fmt.Sprintf("webserver-%d-round-%d", s, round), r)
				}))
			}
			ctx.WaitAll(snap)
			st := repo.Stats()
			fmt.Printf("round %d: snapshotted %d instances; repository holds %d chunks (%.1f MB) for %d snapshots\n",
				round, *servers, st.Chunks, float64(st.StoredBytes)/1e6, *servers*round+1)
		}

		// Show per-instance mirroring statistics.
		var fetches, gapFills, committed int64
		for _, disk := range disks {
			st := disk.Stats()
			fetches += st.RemoteChunkFetches
			gapFills += st.GapFills
			committed += st.CommittedChunks
		}
		fmt.Printf("totals: %d remote chunk fetches, %d gap fills, %d chunks committed\n",
			fetches, gapFills, committed)
		full := int64(*servers*(*rounds))*int64(imageSize)/1e6 + int64(imageSize)/1e6
		fmt.Printf("naive full-image snapshots would have stored ~%d MB; shadowing stored %.1f MB\n",
			full, float64(repo.Stats().StoredBytes)/1e6)

		// Lifecycle epilogue: retire everything older than the newest
		// keep snapshots of each server (the disks pin what they still
		// mirror) and reclaim the storage only those rounds referenced.
		retiredTotal := 0
		for _, disk := range disks {
			n, err := repo.RetireOld(ctx, disk, *keep)
			if err != nil {
				log.Fatal(err)
			}
			retiredTotal += n
		}
		rep, err := repo.GC(ctx)
		if err != nil {
			log.Fatal(err)
		}
		st := repo.Stats()
		fmt.Printf("retention retired %d old snapshot versions; GC reclaimed %d chunks (%.1f MB) — %d chunks (%.1f MB) remain\n",
			retiredTotal, rep.FreedChunks, float64(rep.FreedBytes)/1e6, st.Chunks, float64(st.StoredBytes)/1e6)
	})
}
