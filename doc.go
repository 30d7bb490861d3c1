// Package blobvfs is the public façade of the repository: a versioned
// virtual file system for VM images, reproducing the HPDC'11 design of
// a BlobSeer-backed image store with per-node lazy mirroring
// (multideployment) and CLONE+COMMIT snapshotting (multisnapshotting).
//
// It is the single supported API. Everything underneath —
// internal/blob (the versioning chunk store), internal/mirror (the
// mirroring module), internal/p2p (cohort chunk sharing) — is wired
// together here and must not be imported directly; see docs/api.md for
// the surface and the migration table from the old internal wiring.
//
// # Model
//
// A Repo is an image repository deployed over a cluster Fabric: the
// provider nodes' local disks store fixed-size chunks, a version
// manager publishes immutable snapshots in total order, and segment
// trees shared across versions (shadowing) and lineages (cloning) make
// both COMMIT and CLONE metadata-cheap. Every Snapshot names one
// immutable image: a lineage (ImageID) and a version within it.
//
// A Disk is a snapshot mirrored on one node as the raw file a
// hypervisor would mount: reads fetch missing chunks lazily from the
// repository (or from cohort peers, with WithP2P), writes stay local
// until Commit publishes them as a new snapshot. Disks adapt to the
// standard library's io interfaces through Disk.IO.
//
// All cost-bearing operations take a *Ctx from the fabric the repo was
// opened on: a live fabric (real goroutines, real bytes, zero cost)
// for production-style use and tests, or the calibrated discrete-event
// simulation for the paper's experiments.
//
// # A minimal session
//
//	fab := blobvfs.NewLiveCluster(8)
//	repo, err := blobvfs.Open(fab, blobvfs.WithChunkSize(256<<10))
//	...
//	fab.Run(func(ctx *blobvfs.Ctx) {
//		base, _ := repo.Create(ctx, "debian", imageBytes)
//		disk, _ := repo.OpenDisk(ctx, ctx.Node(), base)
//		disk.WriteAt(ctx, patch, off)            // local modification
//		snap, _ := repo.Snapshot(ctx, disk, true) // CLONE+COMMIT → own lineage
//		repo.Tag("debian-configured", snap)
//		disk.Close(ctx)
//	})
//
// Failures carry typed sentinels (ErrNotFound, ErrOutOfRange,
// ErrVersionRetired, ...) wrapped with %w, so callers branch with
// errors.Is end-to-end through the façade.
package blobvfs

import (
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/mirror"
	"blobvfs/internal/p2p"
)

// Aliases re-export the types that cross the façade boundary, so
// callers import only this package.
type (
	// Fabric is the cluster substrate a Repo deploys on (live or
	// simulated).
	Fabric = cluster.Fabric
	// Ctx is the context of one activity on a fabric; every
	// cost-bearing call takes one.
	Ctx = cluster.Ctx
	// NodeID numbers the cluster's nodes from 0.
	NodeID = cluster.NodeID
	// Task joins an activity spawned with Ctx.Go.
	Task = cluster.Task
	// LiveCluster is the zero-cost in-process fabric.
	LiveCluster = cluster.Live

	// ImageID identifies an image lineage.
	ImageID = blob.ID
	// Version is a 1-based snapshot number within a lineage.
	Version = blob.Version

	// FaultEvent schedules one node kill or revival at an absolute
	// virtual time; build plans with KillAt/ReviveAt (or, with a
	// topology, KillRackAt/KillZoneAt and their revive twins) and
	// install them with WithFaultPlan.
	FaultEvent = cluster.FaultEvent
	// FaultPlanError reports a redundant fault-plan transition (a kill
	// of a node already dead at that point in the plan, or a revive of
	// a live one); Open and ValidateFaults reject such plans with it.
	FaultPlanError = cluster.FaultPlanError

	// Topology arranges a cluster's nodes into zones and racks with
	// tiered links; install it with WithTopology (and, for modeled
	// tier contention, in the simulated fabric's cluster config).
	Topology = cluster.Topology
	// Tier is the locality distance between two nodes (TierLocal,
	// TierRack, TierZone, TierRemote); it indexes the per-tier
	// counters of P2PStats.TierHits.
	Tier = cluster.Tier

	// DiskStats is an open disk's access accounting.
	DiskStats = mirror.Stats
	// GCReport summarizes one garbage-collection cycle.
	GCReport = blob.GCReport
	// P2PStats is a sharing cohort's hit/traffic accounting.
	P2PStats = p2p.Stats
)

// Locality tiers, nearest first; see Tier.
const (
	TierLocal  = cluster.TierLocal
	TierRack   = cluster.TierRack
	TierZone   = cluster.TierZone
	TierRemote = cluster.TierRemote
	// NumTiers sizes per-tier counter arrays (P2PStats.TierHits).
	NumTiers = cluster.NumTiers
)

// NewLiveCluster creates an in-process cluster of n nodes: real
// goroutines, real bytes, zero modeled cost.
func NewLiveCluster(nodes int) *LiveCluster { return cluster.NewLive(nodes) }

// KillAt returns the fault-plan event that fails node at virtual time
// t (seconds). Every plan time, here and below, counts from the instant
// Repo.ArmFaults arms the plan.
func KillAt(t float64, node NodeID) FaultEvent { return cluster.KillAt(t, node) }

// ReviveAt returns the fault-plan event that brings node back at
// virtual time t (seconds).
func ReviveAt(t float64, node NodeID) FaultEvent { return cluster.ReviveAt(t, node) }

// KillRackAt returns the fault-plan event that fails every node of the
// given rack (global rack index, see Topology.Rack) at virtual time t.
// Rack- and zone-scoped events need a repo opened with WithTopology;
// they expand to one event per member node when the plan is armed.
func KillRackAt(t float64, rack int) FaultEvent { return cluster.KillRackAt(t, rack) }

// ReviveRackAt returns the event that brings a whole rack back at
// virtual time t.
func ReviveRackAt(t float64, rack int) FaultEvent { return cluster.ReviveRackAt(t, rack) }

// KillZoneAt returns the fault-plan event that fails every node of the
// given zone at virtual time t. See KillRackAt for the topology
// requirement.
func KillZoneAt(t float64, zone int) FaultEvent { return cluster.KillZoneAt(t, zone) }

// ReviveZoneAt returns the event that brings a whole zone back at
// virtual time t.
func ReviveZoneAt(t float64, zone int) FaultEvent { return cluster.ReviveZoneAt(t, zone) }

// ValidateFaults checks a fault plan against a cluster size and
// topology without opening a repo — the same validation Open performs
// for WithFaultPlan: event times, node/rack/zone ranges, the topology
// requirement of scoped events, and redundant transitions (rejected
// with a typed *FaultPlanError). Pass the zero Topology for a flat
// cluster.
func ValidateFaults(events []FaultEvent, nodes int, topo Topology) error {
	return cluster.ValidateFaults(events, nodes, topo)
}
