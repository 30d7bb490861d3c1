package cluster

import (
	"fmt"
	"strconv"

	"blobvfs/internal/sim"
	"blobvfs/internal/sim/flownet"
)

// Sim is the discrete-event fabric: it charges every network, disk and
// CPU operation on shared, contended resources in virtual time.
//
// Network: each node has a full-duplex NIC modeled as an uplink and a
// downlink in a max-min fair flow network; the switch core is assumed
// non-blocking (Gigabit Ethernet cluster, §5.1 of the paper).
//
// Disk: each node's disk is a processor-sharing pool; per-operation
// positioning (seek) is charged as equivalent bandwidth consumption.
//
// Asynchronous writes: each node has a bounded write-back buffer drained
// to disk in the background, giving the fast-then-degrading COMMIT
// latencies the paper observes for BlobSeer (§5.3). Dirty data, whose
// only copy is the buffer's, drains beside reads. A clean copy (a
// mirror's fetched chunks) drains only while the disk is otherwise idle,
// so a provider's reads on that disk (§3.1.1) do not queue behind it.
// Appends (the immutable chunks a provider stores) drain through the
// node's log instead: one at a time, in arrival order, each freeing its
// space as it lands, and only one that finds the log idle seeks.
type Sim struct {
	cfg     Config
	env     *sim.Env
	net     *flownet.Net
	up      []*flownet.Link
	down    []*flownet.Link
	disks   []*sim.PSPool
	wbuf    []*sim.Semaphore
	logs    []appendLog
	traffic int64

	// Tier links of the configured topology (nil slices on the flat
	// cluster): per-rack uplink/downlink pairs indexed by global rack,
	// and per-zone interconnect pairs indexed by zone. Cross-rack
	// traffic traverses both endpoints' rack links; cross-zone traffic
	// additionally traverses both zones' interconnect links.
	rackUp, rackDown []*flownet.Link
	zoneUp, zoneDown []*flownet.Link
	// tierBytes accounts off-node traffic by locality tier (the flat
	// cluster books everything under TierRack). Fixed-size array, so
	// iteration over tiers is inherently ordered.
	tierBytes [NumTiers]int64
}

// linkName builds a link's diagnostic name without fmt: NewSim creates
// four named resources per node (plus tier links), and Sprintf on that
// setup path is measurable at the 10k-node scale.
func linkName(prefix string, i int, suffix string) string {
	return prefix + strconv.Itoa(i) + suffix
}

// NewSim returns a simulated fabric with the given configuration.
func NewSim(cfg Config) *Sim {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	env := sim.New()
	f := &Sim{
		cfg:   cfg,
		env:   env,
		net:   flownet.New(env),
		up:    make([]*flownet.Link, cfg.Nodes),
		down:  make([]*flownet.Link, cfg.Nodes),
		disks: make([]*sim.PSPool, cfg.Nodes),
		wbuf:  make([]*sim.Semaphore, cfg.Nodes),
		logs:  make([]appendLog, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		f.up[i] = f.net.NewLink(linkName("n", i, ".up"), cfg.NICBandwidth)
		f.down[i] = f.net.NewLink(linkName("n", i, ".down"), cfg.NICBandwidth)
		f.disks[i] = sim.NewPSPool(env, linkName("n", i, ".disk"), cfg.DiskBandwidth)
		f.wbuf[i] = sim.NewSemaphore(env, cfg.WriteBuffer)
	}
	// Tier links are created after every node link, so node link
	// identities (the flownet tie-break order) are unchanged whether or
	// not a topology is configured.
	if topo := cfg.Topology; topo.Enabled() {
		racks := topo.Racks()
		f.rackUp = make([]*flownet.Link, racks)
		f.rackDown = make([]*flownet.Link, racks)
		for r := 0; r < racks; r++ {
			f.rackUp[r] = f.net.NewLink(linkName("r", r, ".up"), topo.RackBandwidth)
			f.rackDown[r] = f.net.NewLink(linkName("r", r, ".down"), topo.RackBandwidth)
		}
		f.zoneUp = make([]*flownet.Link, topo.Zones)
		f.zoneDown = make([]*flownet.Link, topo.Zones)
		for z := 0; z < topo.Zones; z++ {
			f.zoneUp[z] = f.net.NewLink(linkName("z", z, ".up"), topo.ZoneBandwidth)
			f.zoneDown[z] = f.net.NewLink(linkName("z", z, ".down"), topo.ZoneBandwidth)
		}
	}
	return f
}

// Env exposes the underlying simulation environment (for custom models
// and tests).
func (f *Sim) Env() *sim.Env { return f.env }

// Net exposes the flow network (for custom transfer paths, e.g. the
// broadcast trees of the prepropagation baseline).
func (f *Sim) Net() *flownet.Net { return f.net }

// Uplink returns node n's NIC uplink.
func (f *Sim) Uplink(n NodeID) *flownet.Link { return f.up[n] }

// Disk returns node n's disk pool.
func (f *Sim) Disk(n NodeID) *sim.PSPool { return f.disks[n] }

// Nodes returns the cluster size.
func (f *Sim) Nodes() int { return f.cfg.Nodes }

// Config returns the physical constants in force.
func (f *Sim) Config() Config { return f.cfg }

// Now returns the current virtual time in seconds.
func (f *Sim) Now() float64 { return f.env.Now() }

// NetTraffic returns cumulative off-node traffic in bytes.
func (f *Sim) NetTraffic() int64 { return f.traffic }

// TierTraffic returns cumulative off-node traffic in bytes that
// crossed the given locality tier: TierRack for intra-rack exchanges
// (all off-node traffic of a flat cluster), TierZone for cross-rack,
// TierRemote for cross-zone — the scarce bytes of a multi-zone
// deployment.
func (f *Sim) TierTraffic(t Tier) int64 { return f.tierBytes[t] }

// CrossZoneBytes returns the cumulative traffic that crossed a zone
// interconnect. It is the headline metric of topology-aware placement:
// shorthand for TierTraffic(TierRemote).
func (f *Sim) CrossZoneBytes() int64 { return f.tierBytes[TierRemote] }

// ResetTraffic zeroes the traffic counters (total and per-tier).
func (f *Sim) ResetTraffic() {
	f.traffic = 0
	f.tierBytes = [NumTiers]int64{}
}

// Run executes fn as the root activity on node 0 and drives the
// simulation until the event queue drains.
func (f *Sim) Run(fn func(*Ctx)) {
	f.env.Go("main", func(p *sim.Proc) {
		fn(&Ctx{fab: f, node: 0, Proc: p})
	})
	f.env.Run()
	if n := f.env.Procs(); n != 0 {
		panic(fmt.Sprintf("cluster: simulation deadlock, %d processes still blocked", n))
	}
}

type simTask struct {
	proc *sim.Proc
}

func (*simTask) isTask() {}

func (f *Sim) spawn(name string, node NodeID, _ *Ctx, fn func(*Ctx)) Task {
	f.cfg.checkNode(node)
	p := f.env.Go(name, func(p *sim.Proc) {
		fn(&Ctx{fab: f, node: node, Proc: p})
	})
	return &simTask{proc: p}
}

func (f *Sim) wait(ctx *Ctx, t Task) {
	ctx.Proc.Join(t.(*simTask).proc)
}

func (f *Sim) sleep(ctx *Ctx, d float64) { ctx.Proc.Sleep(d) }

// smallPayload is the cutoff below which an RPC payload is charged as
// serialization delay instead of occupying the flow network: a message
// of a few KB fits in the socket buffers and never contends for
// sustained bandwidth, while creating a flow for it would make the
// max-min recomputation the simulation's bottleneck under metadata
// chatter.
const smallPayload = 8 << 10

func (f *Sim) rpc(ctx *Ctx, from, to NodeID, reqBytes, respBytes int64) {
	f.cfg.checkNode(from)
	f.cfg.checkNode(to)
	p := ctx.Proc
	if from == to {
		p.Sleep(f.cfg.LocalRPC)
		return
	}
	tier := f.cfg.Topology.Tier(from, to)
	f.traffic += reqBytes + respBytes
	f.tierBytes[tier] += reqBytes + respBytes
	delay := f.cfg.RTT + f.cfg.ReqOverhead + f.tierLatency(tier)
	if reqBytes > 0 && reqBytes <= smallPayload {
		delay += float64(reqBytes) / f.cfg.NICBandwidth
		reqBytes = 0
	}
	if respBytes > 0 && respBytes <= smallPayload {
		delay += float64(respBytes) / f.cfg.NICBandwidth
		respBytes = 0
	}
	p.Sleep(delay)
	if reqBytes > 0 {
		f.net.Transfer(p, float64(reqBytes), f.pathLinks(from, to, tier, nil)...)
	}
	if respBytes > 0 {
		f.net.Transfer(p, float64(respBytes), f.pathLinks(to, from, tier, nil)...)
	}
}

// tierLatency returns the extra round-trip cost of a path's locality
// tier: zero within a rack (and on the flat cluster), the topology's
// rack latency for cross-rack paths, its zone latency for cross-zone.
func (f *Sim) tierLatency(tier Tier) float64 {
	switch tier {
	case TierZone:
		return f.cfg.Topology.RackLatency
	case TierRemote:
		return f.cfg.Topology.ZoneLatency
	}
	return 0
}

// pathLinks assembles the constraint links of a one-way transfer from
// src to dst whose locality tier is already known: the endpoint NICs
// always, the two rack uplinks when the path leaves a rack, and the
// two zone interconnects when it leaves a zone. extra links (caller
// throttles) are appended last. On the flat cluster this is exactly
// the historical up/down pair.
func (f *Sim) pathLinks(src, dst NodeID, tier Tier, extra []*flownet.Link) []*flownet.Link {
	links := make([]*flownet.Link, 0, 6+len(extra))
	links = append(links, f.up[src])
	if tier >= TierZone {
		topo := f.cfg.Topology
		links = append(links, f.rackUp[topo.Rack(src)])
		if tier == TierRemote {
			links = append(links, f.zoneUp[topo.Zone(src)], f.zoneDown[topo.Zone(dst)])
		}
		links = append(links, f.rackDown[topo.Rack(dst)])
	}
	links = append(links, f.down[dst])
	return append(links, extra...)
}

// TransferVia performs a raw one-way bulk transfer from one node to
// another through any extra constraint links (e.g. a per-edge throttle
// modeling a pipelined broadcast chain's effective rate). The transfer
// is charged as network traffic. Callers on the live fabric should use
// Ctx.RPC instead; this entry point exists for transport models such as
// the prepropagation broadcast tree.
func (f *Sim) TransferVia(ctx *Ctx, from, to NodeID, bytes int64, extra ...*flownet.Link) {
	f.cfg.checkNode(from)
	f.cfg.checkNode(to)
	if bytes <= 0 || from == to {
		return
	}
	tier := f.cfg.Topology.Tier(from, to)
	f.traffic += bytes
	f.tierBytes[tier] += bytes
	ctx.Proc.Sleep(f.cfg.RTT + f.tierLatency(tier))
	f.net.Transfer(ctx.Proc, float64(bytes), f.pathLinks(from, to, tier, extra)...)
}

// seekCost converts positioning time into equivalent bandwidth units so
// seeks occupy the disk alongside streaming transfers.
func (f *Sim) seekCost() float64 { return f.cfg.DiskSeek * f.cfg.DiskBandwidth }

func (f *Sim) disk(ctx *Ctx, node NodeID, bytes int64, mode writeMode) {
	f.cfg.checkNode(node)
	if bytes <= 0 {
		return
	}
	buf := f.wbuf[node]
	disk := f.disks[node]
	work := float64(bytes) + f.seekCost()
	if mode == writeSync || bytes > buf.Capacity() {
		// Reads, sync and oversized writes go straight to disk, at their own priority.
		if mode == writeIdle {
			disk.UseIdle(ctx.Proc, work)
		} else {
			disk.Use(ctx.Proc, work)
		}
		return
	}
	// Reserve buffer space (blocking only under backpressure), then
	// drain to disk in the background and release the reservation.
	buf.Acquire(ctx.Proc, bytes)
	// The drainer is a callback chain, not a process: a flash crowd
	// issues one write-back per committed chunk, and parking a goroutine
	// for each made this the hottest spawn site in the tree. It starts
	// in an event of its own, where a spawned drainer would have, and
	// the async completion fires at the event position the blocked
	// drainer would have resumed at, so schedules are unchanged.
	f.env.At(f.env.Now(), func() {
		switch mode {
		case writeAppend:
			lg := &f.logs[node]
			if lg.queue = append(lg.queue, bytes); len(lg.queue)-lg.head == 1 {
				f.drainAppend(node, work)
			}
		case writeIdle:
			disk.UseIdleAsync(work, func() { buf.Release(bytes) })
		default:
			disk.UseAsync(work, func() { buf.Release(bytes) })
		}
	})
}

// appendLog is a node's log: queue[head] is on disk, the rest wait in
// arrival order, and an emptied queue rewinds to reuse its array.
type appendLog struct {
	queue []int64
	head  int
}

// drainAppend writes the head of node's log, frees its buffer space as
// it lands, and starts the next one without a seek: they are contiguous.
func (f *Sim) drainAppend(node NodeID, work float64) {
	f.disks[node].UseAsync(work, func() {
		lg := &f.logs[node]
		f.wbuf[node].Release(lg.queue[lg.head])
		if lg.head++; lg.head == len(lg.queue) {
			lg.queue, lg.head = lg.queue[:0], 0
		} else {
			f.drainAppend(node, float64(lg.queue[lg.head]))
		}
	})
}
