// Package p2p implements peer-to-peer chunk sharing for concurrent
// multideployment — the scaling direction §7 of the paper names as
// avoiding provider hot-spots when N mirroring modules deploy the same
// image at once.
//
// A module that has mirrored a chunk becomes an alternate source for its
// cohort siblings, so provider load per chunk drops from O(N) to O(1).
//
// The design is tracker-based, like a registry-scale mirror fan-out
// (cf. oc-mirror's mirror-to-disk-then-redistribute flow):
//
//   - One Cohort lives on a tracker node (the version-manager/service
//     node in the experiments), for the one image its repository
//     shares: the member nodes plus, per chunk, its holders and one
//     record per member. NewRegistry creates it; the first Register
//     names its image.
//   - A fetch that lands (Landed(ok)) publishes its member as a holder
//     at no cost; chunks a member commits it announces with one small
//     RPC. Records are deduplicated per (member, chunk).
//   - Members keep no location state. Every Locate pays one 32+32-byte
//     RPC to the tracker and is answered from its live map, so a record
//     withdrawn by a death, a Retract or the garbage collector is gone
//     for the very next lookup and nothing has to converge. Control
//     traffic is O(members × chunks).
//   - A member passes one chunk on fanOut = 2 times: the tracker
//     counts, per (member, chunk), the copies promised. Locate picks a
//     source that has a copy left to give, the nearest tier first.
//   - A chunk in flight is a source too. A fetch that will keep the
//     chunk asks with Fetching, which puts the member on the chunk's
//     in-flight record whatever the answer. Within a tier a requester is
//     attached to the earliest fetcher on that record that has a copy
//     left and waits for the fetch to settle; a published holder, and
//     its disk, serves only where no such fetch exists. The children
//     below a fetch and the reads served as a holder are one count, so
//     one binary tree forms per chunk, in arrival order: one provider
//     read seeds a chunk for a whole cohort, and no member serves it
//     more than twice. Only when every copy is spoken for does the
//     caller fall back to the providers.
//   - A promise that is not kept is handed back: when the fetch waited
//     on ends without the chunk its children's copies come off its
//     count, and a count goes with the member's record when it retracts,
//     dies, or the chunk is reclaimed.
//   - Every entry of the record is settled exactly once, by the
//     fetcher's Landed the moment its read of the chunk ends, or before
//     that by its death or the chunk's reclamation; a released waiter
//     reads from its parent if that has the payload and is alive. A bare
//     Locate never goes on record, and waits cannot form a cycle
//     (pickFetcherLocked). docs/p2p.md, "Settling", has the cases.
//   - A member whose local copy diverges from the published content
//     (a chunk dirtied by a guest write, or kept around one) retracts.
//
// Cohort implements blob.ChunkSharer; the blob client consults it on
// every chunk read and mirror modules retract through it. State is
// shared memory guarded by a mutex that is never held across fabric
// operations, so the same code runs on the live fabric (real
// goroutines) and the discrete-event simulation.
package p2p
