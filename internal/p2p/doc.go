// Package p2p implements peer-to-peer chunk sharing for concurrent
// multideployment — the scaling direction §7 of the paper names as
// avoiding provider hot-spots when N mirroring modules deploy the same
// image at once.
//
// Without sharing, every demand fetch of a hot chunk lands on the same
// small replica set, so per-provider load scales linearly with N. With
// sharing, a module that has already mirrored a chunk (by demand fetch,
// prefetch or commit) becomes an alternate source for its cohort
// siblings, and provider load per chunk drops to O(1): the first few
// fetches seed the cohort, everything after is peer traffic spread over
// the deployment's own NICs and disks.
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
//   - Locate picks the least-loaded holder (all nodes are equidistant
//     behind the non-blocking switch, so "nearest" degenerates to
//     least-loaded) and reserves one of its Config.MaxUploads upload
//     slots. If every holder is saturated the caller falls back to the
//     providers — hot peers shed load instead of becoming the new
//     hot-spot.
//   - A member whose local copy diverges from the published content
//     (a mirrored chunk dirtied by a guest write) retracts itself.
//
// Cohort implements blob.ChunkSharer; the blob client consults it on
// every chunk read and mirror modules announce through it. State is
// shared memory guarded by a mutex that is never held across fabric
// operations, so the same code runs on the live fabric (real
// goroutines) and the discrete-event simulation.
package p2p
