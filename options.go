package blobvfs

import (
	"errors"
	"fmt"

	"blobvfs/internal/cluster"
)

// config is the resolved Repo configuration; Open applies defaults,
// then options, then validates.
type config struct {
	providers    []NodeID
	manager      NodeID
	replicas     int
	metaReplicas int
	chunkSize    int
	p2p          bool
	faults       []FaultEvent
	topo         Topology
	syncUUID     uint64 // 0 auto-assigns a process-unique identity
}

// Option configures a Repo at Open.
type Option func(*config)

// WithProviders selects the nodes whose local disks form the storage
// pool. Default: every node of the fabric (§3.1.1: aggregate all local
// disks).
func WithProviders(nodes ...NodeID) Option {
	return func(c *config) { c.providers = nodes }
}

// WithManager places the version manager (and, with WithP2P, the
// sharing tracker) on the given node. Default: node 0.
func WithManager(node NodeID) Option {
	return func(c *config) { c.manager = node }
}

// WithReplicas sets the chunk replication degree. Default: 1.
func WithReplicas(k int) Option {
	return func(c *config) { c.replicas = k }
}

// WithMetaReplicas sets the metadata replication degree: each segment-
// tree node ref maps to an r-replica ring over the metadata providers
// (spread across failure domains with WithTopology), writes fan out to
// every live ring member and write around dead ones, reads probe the
// nearest live replica first and fail over down the ring, and every
// liveness transition triggers a metadata repair sweep that restores
// the degree. The version manager's records are journaled to r-1
// standby nodes the same way, so control-plane state survives the
// death of its host. Default: 1 — today's single-home layout with the
// control plane assumed fault-free, byte-identical to a repo opened
// before metadata replication existed.
func WithMetaReplicas(r int) Option {
	return func(c *config) { c.metaReplicas = r }
}

// WithChunkSize sets the stripe unit in bytes. Default: 256 KB (the
// paper's §5.2 setting).
func WithChunkSize(bytes int) Option {
	return func(c *config) { c.chunkSize = bytes }
}

// WithP2P enables peer-to-peer chunk sharing: the deployment cohort
// registered with Repo.Share serves each other's demand fetches before
// falling back to the providers, with the protocol defaults. The
// tracker runs on the manager node.
func WithP2P() Option {
	return func(c *config) { c.p2p = true }
}

// WithTopology makes the repository topology-aware: chunk placement
// spreads a key's replicas across failure domains (distinct zones
// first, then distinct racks), reads probe the reader's nearest live
// copy first, and — with WithP2P — cohort peer selection prefers a
// same-rack holder, then same-zone, then remote, with the copies a
// holder has given only breaking ties within a tier. The topology describes the whole
// fabric (Zones × RacksPerZone × NodesPerRack must equal the cluster
// size) and normally mirrors the simulated fabric's cluster-config
// topology, so the policy matches the modeled tier links.
//
// Awareness is deliberately opt-in: a repo opened without WithTopology
// keeps flat, domain-blind replica placement and tier-blind peer picks
// even on a fabric that models tiered links — that flat-policy
// baseline is what the cross-zone scenario measures against. A
// single-zone, single-rack topology is the degenerate case and
// reproduces the flat behavior byte-identically.
func WithTopology(t Topology) Option {
	return func(c *config) { c.topo = t }
}

// WithSyncUUID sets the identity this repository presents to its
// disconnected-sync peers: Export stamps it into every archive
// header, and Import accepts archives from exactly one source UUID
// (the first one seen; others fail with ErrSourceMismatch), the
// strict-source rule of the oc-mirror workflow the subsystem models.
// Default: a process-unique identity assigned at Open. Set it
// explicitly when repositories on different fabrics (or in different
// processes) must recognize each other across export/import runs.
func WithSyncUUID(uuid uint64) Option {
	return func(c *config) { c.syncUUID = uuid }
}

// WithFaultPlan configures a fault-injection plan: each event kills or
// revives one node — or a whole rack or zone — a given number of
// virtual seconds after arming (build them with KillAt/ReviveAt and,
// on a repo opened with WithTopology,
// KillRackAt/ReviveRackAt/KillZoneAt/ReviveZoneAt, which expand to
// their member nodes when the plan is armed). Open rejects
// plans whose events are redundant for some node — a kill of a node
// already dead at that point, or a revive of a live one — with a typed
// *FaultPlanError instead of silently executing the no-op.
// The plan does not run by itself — call Repo.ArmFaults
// from an activity to start the injector. While armed, a killed
// provider stops serving chunks (reads fail over to surviving replicas
// and the chunks it held are re-replicated), and a killed cohort peer
// is retracted from the sharing layer so it is never selected as an
// uploader. With the zero-value plan (no WithFaultPlan) every run is
// byte-identical to a repo without the fault subsystem. Repeated
// options concatenate their events.
//
// Event times are virtual-clock seconds, so timed outage windows need
// a simulated fabric: the live fabric has no clock, and a plan armed
// there fires all its events back-to-back, in time order, immediately.
func WithFaultPlan(events ...FaultEvent) Option {
	return func(c *config) { c.faults = append(c.faults, events...) }
}

// validate checks the resolved configuration against the fabric size.
func (c *config) validate(nodes int) error {
	if c.chunkSize <= 0 {
		return fmt.Errorf("blobvfs: chunk size %d: %w", c.chunkSize, ErrOutOfRange)
	}
	if len(c.providers) == 0 {
		return fmt.Errorf("blobvfs: no provider nodes: %w", ErrOutOfRange)
	}
	for _, n := range c.providers {
		if int(n) < 0 || int(n) >= nodes {
			return fmt.Errorf("blobvfs: provider node %d outside cluster of %d: %w", n, nodes, ErrOutOfRange)
		}
	}
	if int(c.manager) < 0 || int(c.manager) >= nodes {
		return fmt.Errorf("blobvfs: manager node %d outside cluster of %d: %w", c.manager, nodes, ErrOutOfRange)
	}
	if c.replicas < 1 || c.replicas > len(c.providers) {
		return fmt.Errorf("blobvfs: replication degree %d invalid for %d providers: %w",
			c.replicas, len(c.providers), ErrOutOfRange)
	}
	if c.metaReplicas < 1 || c.metaReplicas > len(c.providers) {
		return fmt.Errorf("blobvfs: metadata replication degree %d invalid for %d providers: %w",
			c.metaReplicas, len(c.providers), ErrOutOfRange)
	}
	// The topology validates first: fault validation needs it to
	// resolve rack- and zone-scoped events.
	if err := c.topo.Validate(nodes); err != nil {
		return fmt.Errorf("blobvfs: %w: %w", err, ErrOutOfRange)
	}
	if err := cluster.ValidateFaults(c.faults, nodes, c.topo); err != nil {
		var planErr *cluster.FaultPlanError
		if errors.As(err, &planErr) {
			return fmt.Errorf("blobvfs: %w", err)
		}
		return fmt.Errorf("blobvfs: %w: %w", err, ErrOutOfRange)
	}
	return nil
}
