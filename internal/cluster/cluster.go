package cluster

import (
	"fmt"

	"blobvfs/internal/sim"
)

// NodeID identifies a node in the cluster. Valid IDs are 0..Nodes()-1.
type NodeID int

// Config carries the physical constants of the modeled cluster. The
// defaults (see DefaultConfig) are the NIC bandwidth, latency and disk
// speed §5.1 of the paper states; the costs it does not state
// (ReqOverhead, LocalRPC, DiskSeek, WriteBuffer) are calibrated, and
// each field's comment says what it stands for.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// NICBandwidth is per-direction NIC capacity in bytes/s.
	NICBandwidth float64
	// RTT is the network round-trip latency in seconds.
	RTT float64
	// ReqOverhead is the fixed per-request processing cost in seconds
	// (marshaling, syscalls, server dispatch) charged on every RPC.
	ReqOverhead float64
	// LocalRPC is the cost of an RPC whose endpoints share a node.
	LocalRPC float64
	// DiskBandwidth is local-disk streaming bandwidth in bytes/s.
	DiskBandwidth float64
	// DiskSeek is the per-operation positioning time in seconds. It is
	// charged as equivalent disk-capacity consumption, so seeks compete
	// with streaming transfers for the disk like they do in reality.
	DiskSeek float64
	// WriteBuffer is the per-node asynchronous write-back buffer in
	// bytes. Writers reserve buffer space and a background drainer pays
	// the disk cost, which is the mechanism behind BlobSeer's fast
	// asynchronous COMMIT acknowledgements (paper §5.3). Both classes of
	// write-back share it; only a clean copy may wait for an idle disk.
	WriteBuffer int64
	// Topology optionally arranges the nodes into zones and racks with
	// tiered links (see Topology). The zero value keeps the flat
	// single-switch cluster of §5.1.
	Topology Topology
}

// DefaultConfig returns the Grid'5000 Nancy cluster constants of §5.1.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		NICBandwidth:  117.5e6,
		RTT:           1e-4,
		ReqOverhead:   3e-4,
		LocalRPC:      2e-5,
		DiskBandwidth: 55e6,
		DiskSeek:      6e-3,
		WriteBuffer:   64 << 20,
	}
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes = %d, need > 0", c.Nodes)
	}
	if c.NICBandwidth <= 0 || c.DiskBandwidth <= 0 {
		return fmt.Errorf("cluster: bandwidths must be positive")
	}
	if c.WriteBuffer <= 0 {
		return fmt.Errorf("cluster: WriteBuffer must be positive")
	}
	if err := c.Topology.Validate(c.Nodes); err != nil {
		return err
	}
	return nil
}

func (c Config) checkNode(n NodeID) {
	if n < 0 || int(n) >= c.Nodes {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", n, c.Nodes))
	}
}

// Task is a handle to an activity spawned with Ctx.Go; join it with
// Ctx.Wait.
type Task interface {
	isTask()
}

// Fabric is the execution substrate: it spawns activities on nodes,
// charges time for network, disk and waiting, and accounts traffic.
type Fabric interface {
	// Nodes returns the cluster size.
	Nodes() int
	// Config returns the physical constants in force.
	Config() Config
	// Run executes fn as the root activity on node 0 and blocks until
	// every activity spawned (transitively) has finished.
	Run(fn func(*Ctx))
	// Now returns the current virtual time in seconds (always 0 on the
	// live fabric, which has no notion of time).
	Now() float64

	// NetTraffic returns cumulative off-node network traffic in bytes.
	NetTraffic() int64
	// ResetTraffic zeroes the traffic counter.
	ResetTraffic()

	spawn(name string, node NodeID, parent *Ctx, fn func(*Ctx)) Task
	wait(ctx *Ctx, t Task)
	sleep(ctx *Ctx, d float64)
	rpc(ctx *Ctx, from, to NodeID, reqBytes, respBytes int64)
	disk(ctx *Ctx, node NodeID, bytes int64, mode writeMode)
}

// writeMode is how a disk transfer reaches the platters. A read is
// writeSync: the caller waits for the disk at normal priority.
type writeMode uint8

const (
	writeSync   writeMode = iota // the caller waits for the disk
	writeBack                    // buffered, drained beside reads
	writeIdle                    // buffered, drained while the disk is otherwise idle
	writeAppend                  // buffered, drained in arrival order through the node's log
)

// Ctx is the context of one activity (a simulated thread of control):
// it knows which node it runs on and charges costs through its fabric.
// A Ctx must only be used by the activity it was created for.
type Ctx struct {
	fab  Fabric
	node NodeID
	// Proc is the underlying simulation process on the Sim fabric and
	// nil on the Live fabric. Exposed for advanced models (e.g. custom
	// resources); normal code should use the Ctx methods.
	Proc *sim.Proc
}

// Node returns the node this activity runs on.
func (c *Ctx) Node() NodeID { return c.node }

// Fabric returns the underlying fabric.
func (c *Ctx) Fabric() Fabric { return c.fab }

// Now returns the current virtual time.
func (c *Ctx) Now() float64 { return c.fab.Now() }

// Sleep suspends the activity for d seconds of virtual time.
func (c *Ctx) Sleep(d float64) { c.fab.sleep(c, d) }

// RPC charges a request/response exchange from this activity's node to
// `to`, with the given payload sizes in each direction. The charge
// covers latency, fixed per-request overhead, and fair-shared bandwidth
// along the sender's uplink and receiver's downlink. Node-local calls
// cost Config.LocalRPC and generate no network traffic.
func (c *Ctx) RPC(to NodeID, reqBytes, respBytes int64) {
	c.fab.rpc(c, c.node, to, reqBytes, respBytes)
}

// DiskRead charges a read of the given size on node's local disk.
func (c *Ctx) DiskRead(node NodeID, bytes int64) { c.fab.disk(c, node, bytes, writeSync) }

// DiskWrite charges a synchronous write on node's local disk.
func (c *Ctx) DiskWrite(node NodeID, bytes int64) { c.fab.disk(c, node, bytes, writeSync) }

// DiskWriteAsync buffers a write in node's write-back buffer. The call
// blocks only while the buffer is full; draining to disk proceeds in
// the background, sharing the disk equally with reads. This models the
// asynchronous write strategy BlobSeer uses to acknowledge COMMIT
// before data reaches the platters. It is for dirty data: the buffer
// holds the only copy, which must not wait behind reads.
func (c *Ctx) DiskWriteAsync(node NodeID, bytes int64) { c.fab.disk(c, node, bytes, writeBack) }

// DiskWriteIdle is DiskWriteAsync at idle priority (IOPRIO_CLASS_IDLE):
// it drains only while node's disk has nothing else to serve. It is for
// a clean copy of data stored elsewhere, which loses nothing by waiting.
func (c *Ctx) DiskWriteIdle(node NodeID, bytes int64) { c.fab.disk(c, node, bytes, writeIdle) }

// DiskAppend is DiskWriteAsync onto node's log, for data never
// rewritten in place (the chunks a provider stores): node's appends
// drain one at a time in arrival order, each freeing its buffer space
// as it lands, and only one that finds the log idle pays a seek.
func (c *Ctx) DiskAppend(node NodeID, bytes int64) { c.fab.disk(c, node, bytes, writeAppend) }

// Go spawns a new activity running fn on the given node.
func (c *Ctx) Go(name string, node NodeID, fn func(*Ctx)) Task {
	return c.fab.spawn(name, node, c, fn)
}

// Wait blocks until the task finishes.
func (c *Ctx) Wait(t Task) { c.fab.wait(c, t) }

// WaitAll blocks until every task finishes.
func (c *Ctx) WaitAll(ts []Task) {
	for _, t := range ts {
		c.fab.wait(c, t)
	}
}
