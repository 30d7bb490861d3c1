// Package p2p implements peer-to-peer chunk sharing for concurrent
// multideployment — the scaling direction §7 of the paper names as
// avoiding provider hot-spots when N mirroring modules deploy the same
// image at once.
//
// Without sharing, every demand fetch of a hot chunk lands on the same
// small replica set, so per-provider load scales linearly with N. With
// sharing, a module that has already mirrored a chunk (by demand fetch
// or commit) becomes an alternate source for its cohort siblings, and
// provider load per chunk drops to O(1): the first few fetches seed the
// cohort, everything after is peer traffic spread over the deployment's
// own NICs and disks.
//
// The design is tracker-based, like a registry-scale mirror fan-out
// (cf. oc-mirror's mirror-to-disk-then-redistribute flow):
//
//   - A Registry lives on a tracker node (the version-manager/service
//     node in the experiments). Per deployed image it keeps a Cohort:
//     the member nodes plus a chunk-key → holders location map.
//   - Members announce freshly mirrored chunks with one small RPC to
//     the tracker. Announcements are deduplicated per (member, chunk),
//     so a chunk fetched twice concurrently is only recorded once.
//   - Members keep no location state. Every Locate pays one 32+32-byte
//     RPC to the tracker and is answered from its live map, so a record
//     withdrawn by a death, a Retract or the garbage collector is gone
//     for the very next lookup and nothing has to converge. Control
//     traffic is O(members × chunks). (An earlier protocol pushed a
//     location digest to the whole cohort every 64 announcements so
//     that lookups could be answered locally; at 512 members that cost
//     420 k control RPCs to save 44.5 k lookups and made the crowd
//     quadratic. docs/p2p.md has the measurement.)
//   - Locate picks a published holder with a free upload slot, the
//     nearest first and then the least loaded, and holds one of its
//     Config.MaxUploads slots for the transfer.
//   - A chunk in flight is a source too. A fetch that will keep the
//     chunk asks with Fetching instead of Locate, which puts the member
//     on the chunk's in-flight record whatever the answer. A requester
//     that finds no holder with a free slot (or only one farther away
//     than a fetcher) is attached to the earliest fetcher on that record
//     with a free slot, holds the slot, and waits for the fetch to
//     settle. MaxUploads is thereby the fan-out of a distribution tree
//     that forms per chunk, in arrival order: one provider read seeds a
//     chunk for a whole cohort that wants it in the same instant. Only
//     when no holder and no fetcher has a free slot does the caller fall
//     back to the providers — hot peers shed load instead of becoming
//     the new hot-spot.
//   - Every entry of the record is settled exactly once, by the
//     fetcher's Landed the moment its read of the chunk ends (the blob
//     client's getChunk, the one call site), or before that by its death
//     or the chunk's reclamation. Landed says whether the payload is in
//     hand; a released waiter reads from its parent if it is and the
//     parent is alive, whatever the parent's mirror then does with the
//     chunk, and goes to the providers otherwise. A bare Locate never
//     goes on record, so nobody can be left waiting for a caller that
//     settles nothing.
//   - Waits cannot form a cycle: a requester is only ever attached to an
//     entry that went on the chunk's record before any entry of its own
//     (pickFetcherLocked), and an entry settles when its own read ends.
//   - A member whose local copy diverges from the published content
//     (a mirrored chunk dirtied by a guest write) retracts itself.
//
// Cohort implements blob.ChunkSharer; the blob client consults it on
// every chunk read and mirror modules announce through it. State is
// shared memory guarded by a mutex that is never held across fabric
// operations, so the same code runs on the live fabric (real
// goroutines) and the discrete-event simulation.
package p2p
