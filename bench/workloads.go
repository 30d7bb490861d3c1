package main

import (
	"fmt"
	"math/rand"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// Every size, range and time of the five workloads is a literal in this
// file. Nothing is read from internal/experiments, so an edit there
// cannot silently move a workload; -anchors proves the literals still
// reproduce the recorded scenarios.

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// scenarioSeed generates what defines a scenario rather than one run of
// it: the image's boot access pattern and the fault plan's victims. The
// crowd workloads are chaotic in these — across 30 values of either,
// completion_s of crowd-p2p ranges 46-111 s and of crowd-faults 10-61 s —
// so a benchmark that drew them from -seed would report the draw, not
// the code. 42 is the seed the recorded scenarios ran with.
const scenarioSeed = 42

// -seed feeds what differs from one deployment of a scenario to the
// next. These offsets are added to it for each random stream; they are
// the ones the recorded scenarios used, so seed 42 reproduces them.
const (
	seedBootTrace   = 0  // scenario: shared boot access pattern
	seedVictims     = 11 // scenario: which providers the fault plan kills
	seedThinkJitter = 1  // per-instance think-time jitter
	seedStartJitter = 2  // per-instance hypervisor launch delay
	seedDirty       = 7  // per-instance local modifications
	seedLiveImage   = 0  // live-io image bytes
	seedLiveClient  = 21 // + client index: live-io ink, write offsets and lengths
)

// subSeed is the seed of a run's i-th repetition. Rep 0 runs the seed
// itself, so rep 0 of `-seed 42` is the recorded scenario.
func subSeed(seed int64, i int) int64 { return seed + 1000*int64(i) }

type kind int

const (
	kindDeploy kind = iota // Orchestrator.Deploy on the sim fabric
	kindHerd               // dirty + Orchestrator.SnapshotAll rounds on the sim fabric
	kindLive               // real bytes through the façade on the live fabric
)

// fabricShape names how a sim workload arranges its nodes.
type fabricShape int

const (
	// dedicatedPool: instance nodes, then a small provider pool, then
	// one service node (version manager, p2p tracker).
	dedicatedPool fabricShape = iota
	// aggregated: storage aggregated over every compute node (§3.1.1),
	// plus one service node.
	aggregated
	// zoned: racks of rackSize in 4 zones; instance racks, provider
	// racks, one auxiliary rack whose first node is the service node.
	zoned
)

type workload struct {
	name, why string
	kind      kind
	shape     fabricShape

	instances int
	providers int // pool size; for aggregated, the compute-node count
	imageSize int64
	chunkSize int
	replicas  int
	metaRepl  int
	p2p       bool
	boot      vmmodel.BootConfig

	// writeBuffer is the per-node write-back buffer; jitter bounds the
	// hypervisor launch stagger (§3.1.3).
	writeBuffer          int64
	jitterMin, jitterMax float64
	rounds               int   // herd, live: snapshot rounds per rep
	diff                 int64 // herd: bytes each instance dirties per round
	kills                int   // providers the fault plan kills
	killStart, killEvery float64
	rackSize             int
	clients              int   // live
	readLen              int64 // live: sequential read size
	writes               int   // live: WriteAt calls per round
	writeMin, writeMax   int64 // live: WriteAt length range
	minReps, warmup      int   // timed reps a run needs, each on a seed of its own; discarded leading reps
	extraSetups          int   // deploy: setups timed per rep beyond the rep's own

	live *liveState // live: what the first rep of the process leaves to the later ones
}

// workloads returns the benchmark's five workloads.
func workloads() []*workload {
	quickBoot := vmmodel.BootConfig{
		ImageSize:    256 * mib,
		TouchedBytes: 16 * mib,
		Extents:      40,
		MeanOpLen:    64 * kib,
		WriteOps:     10,
		WriteLen:     8 * kib,
		TotalThink:   1.0,
	}
	paperBoot := vmmodel.BootConfig{
		ImageSize:    2 * gib,
		TouchedBytes: 110 * mib,
		Extents:      220,
		MeanOpLen:    96 * kib,
		WriteOps:     60,
		WriteLen:     16 * kib,
		TotalThink:   5.0,
	}
	return []*workload{
		{
			name: "crowd-p2p",
			why:  "flash crowd on 8 providers with p2p on: sim core, fabric and tracker do the work",
			kind: kindDeploy, shape: dedicatedPool,
			// 512, not the 1024 of BENCH_scale.json: a 1024-way rep takes
			// 8.6 s on 2 cores, and a run needs six. -anchors still checks
			// the 1024 point.
			instances: 512, providers: 8,
			imageSize: 256 * mib, chunkSize: 256 * kib, replicas: 1, metaRepl: 1, p2p: true,
			boot:        quickBoot,
			writeBuffer: 4 * mib, jitterMin: 0.1, jitterMax: 0.6,
			minReps: 6, extraSetups: 9,
		},
		{
			name: "paper-deploy",
			why:  "the paper's Fig. 4 point, p2p off, deep tree: metadata descent, providers and mirror do the work",
			kind: kindDeploy, shape: aggregated,
			instances: 110, providers: 110,
			imageSize: 2 * gib, chunkSize: 256 * kib, replicas: 1, metaRepl: 1,
			boot:        paperBoot,
			writeBuffer: 4 * mib, jitterMin: 0.1, jitterMax: 0.6,
			minReps: 7, extraSetups: 4,
		},
		{
			name: "snapshot-herd",
			why:  "110 instances dirty 15 MiB and snapshot together, 3 rounds, then GC: the write path beside the read path",
			kind: kindHerd, shape: aggregated,
			instances: 110, providers: 110,
			imageSize: 2 * gib, chunkSize: 256 * kib, replicas: 1, metaRepl: 1,
			writeBuffer: 4 * mib,
			rounds:      3, diff: 15 * mib,
			minReps: 2,
		},
		{
			name: "crowd-faults",
			why:  "zoned crowd while 8 of 16 providers die: replica rings, failover, repair and topology-aware picks",
			kind: kindDeploy, shape: zoned,
			instances: 256, providers: 16, rackSize: 8,
			imageSize: 256 * mib, chunkSize: 256 * kib, replicas: 2, metaRepl: 2, p2p: true,
			boot:        quickBoot,
			writeBuffer: 4 * mib, jitterMin: 0.1, jitterMax: 0.6,
			kills: 8, killStart: 0.4, killEvery: 0.15,
			minReps: 10, extraSetups: 4,
		},
		{
			name: "live-io",
			why:  "real bytes on the live fabric, no simulator: host time is blob, mirror and sync code",
			kind: kindLive,
			// 8 nodes: clients alternate between two nodes each (0-1 and
			// 2-3) so every OpenDisk starts with an empty mirror; nodes
			// 4-7 hold the data, so every fetch and commit is off-node
			// and traffic does not depend on goroutine interleaving.
			providers: 4, clients: 2,
			imageSize: 64 * mib, chunkSize: 256 * kib, replicas: 1, metaRepl: 1,
			rounds:  2,
			readLen: 1 * mib,
			writes:  64, writeMin: 4 * kib, writeMax: 256 * kib,
			minReps: 5, warmup: 1,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// layout is the node arrangement of one sim run.
type layout struct {
	cfg     cluster.Config
	inst    []cluster.NodeID
	prov    []cluster.NodeID
	service cluster.NodeID
}

func nodeRange(lo, n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(lo + i)
	}
	return out
}

func (w *workload) layout() layout {
	var l layout
	switch w.shape {
	case dedicatedPool:
		l.cfg = cluster.DefaultConfig(w.instances + w.providers + 1)
		l.inst = nodeRange(0, w.instances)
		l.prov = nodeRange(w.instances, w.providers)
		l.service = cluster.NodeID(w.instances + w.providers)
	case aggregated:
		l.cfg = cluster.DefaultConfig(w.providers + 1)
		l.inst = nodeRange(0, w.instances)
		l.prov = nodeRange(0, w.providers)
		l.service = cluster.NodeID(w.providers)
	case zoned:
		// Rack uplinks at 4× the node NIC with 50 µs extra round trip,
		// zone interconnects at 2× with 1 ms; idle racks pad the rack
		// count to a multiple of the zone count.
		const zones = 4
		instRacks := (w.instances + w.rackSize - 1) / w.rackSize
		provRacks := (w.providers + w.rackSize - 1) / w.rackSize
		racks := instRacks + provRacks + 1
		for racks%zones != 0 {
			racks++
		}
		l.cfg = cluster.DefaultConfig(racks * w.rackSize)
		nic := l.cfg.NICBandwidth
		l.cfg.Topology = cluster.Topology{
			Zones: zones, RacksPerZone: racks / zones, NodesPerRack: w.rackSize,
			RackBandwidth: 4 * nic, RackLatency: 5e-5,
			ZoneBandwidth: 2 * nic, ZoneLatency: 1e-3,
		}
		l.inst = nodeRange(0, w.instances)
		l.prov = nodeRange(instRacks*w.rackSize, w.providers)
		l.service = cluster.NodeID((instRacks + provRacks) * w.rackSize)
	}
	l.cfg.WriteBuffer = w.writeBuffer
	return l
}

// faultPlan kills w.kills providers, one every killEvery seconds from
// killStart after arming. Which ones die is part of the scenario.
func (w *workload) faultPlan(prov []cluster.NodeID) []blobvfs.FaultEvent {
	if w.kills == 0 {
		return nil
	}
	var plan []blobvfs.FaultEvent
	victims := sim.NewRNG(scenarioSeed + seedVictims).Perm(len(prov))[:w.kills]
	for i, v := range victims {
		plan = append(plan, blobvfs.KillAt(w.killStart+float64(i)*w.killEvery, prov[v]))
	}
	return plan
}

// bootTrace is the access pattern of the image, which every instance of
// every deployment replays; it is part of the scenario.
func (w *workload) bootTrace() []vmmodel.TraceOp {
	return vmmodel.GenBootTrace(sim.NewRNG(scenarioSeed+seedBootTrace), w.boot)
}

// dirty writes w.diff bytes as chunk-sized bursts at random chunk-aligned
// spots: the guest writes whole small files, so by snapshot time the dirty
// chunks are fully local and the snapshot ships exactly the diff (§5.3).
func (w *workload) dirty(ctx *cluster.Ctx, disk vmmodel.VirtualDisk, rng *sim.RNG) error {
	run := int64(w.chunkSize)
	slots := disk.Size() / run
	for written := int64(0); written < w.diff; written += run {
		l := min(run, w.diff-written)
		if err := disk.Write(ctx, rng.Int63n(slots)*run, l); err != nil {
			return err
		}
	}
	return nil
}

// liveWrite is one WriteAt of the live-io workload: len bytes of the
// client's ink buffer starting at ink, written at off.
type liveWrite struct {
	off, ink, len int64
}

// liveWrites generates client c's writes of one round. The same call
// drives the timed client and the shadow copy the checker replays.
func (w *workload) liveWrites(rng *rand.Rand) []liveWrite {
	out := make([]liveWrite, w.writes)
	for i := range out {
		l := w.writeMin + rng.Int63n(w.writeMax-w.writeMin+1)
		out[i] = liveWrite{
			off: rng.Int63n(w.imageSize - l + 1),
			ink: rng.Int63n(inkSize - l + 1),
			len: l,
		}
	}
	return out
}

// inkSize is the length of a live-io client's preallocated buffer of
// random bytes that every WriteAt payload is a slice of.
const inkSize = 1 * mib

func randomBytes(seed int64, n int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
