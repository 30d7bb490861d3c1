// Package blob reimplements the BlobSeer distributed versioning storage
// service the paper builds on (Nicolae et al., JPDC 2011): BLOBs are
// striped into fixed-size chunks distributed over provider nodes, and
// every version's metadata is a segment tree whose inner nodes may be
// shared with older versions (shadowing) or with other blobs (cloning),
// exactly as in Fig. 3 of the paper.
//
// The package is organized as BlobSeer itself is:
//
//   - providers (provider.go): store chunk payloads on the compute
//     nodes' local disks, with optional replication;
//   - metadata providers (meta.go): a distributed store of immutable
//     segment-tree nodes, read through one batched get;
//   - the core both of those embed (replicaset.go, rings in ring.go):
//     the record table of what a tier stores, replica rings, liveness,
//     failover picks, degraded puts, the repair sweep and a
//     collection's sweep, once for chunks and tree nodes alike;
//   - the segment-tree algorithms (segtree.go): one level-order walk
//     under CollectLeaves and WalkReachable, and the version builder;
//   - the collector (gc.go): mark through WalkReachable, then sweep;
//   - the version manager (vmanager.go): assigns version numbers and
//     publishes snapshots in total order per blob;
//   - the client (client.go): striped reads, atomic multi-chunk writes
//     (the COMMIT data path), CLONE, and whole-snapshot chunk maps for
//     long-lived readers.
//
// All cost-bearing operations take a *cluster.Ctx, so the same code is
// exercised at zero cost by unit tests (live fabric) and with full
// contention modeling by the experiments (sim fabric).
package blob
