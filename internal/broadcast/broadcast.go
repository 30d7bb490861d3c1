package broadcast

import (
	"math/bits"
	"sort"

	"blobvfs/internal/cluster"
)

// DefaultEffRate is the calibrated per-hop effective throughput in
// bytes/s: the value that reproduces the paper's ~750 s broadcast of a
// 2 GB image to 110 nodes (§5.2).
const DefaultEffRate = 30e6

// Result reports one target's completion.
type Result struct {
	Node cluster.NodeID
	Done float64 // virtual time at which the node has the image on disk
}

// Binomial broadcasts `bytes` from src to every target using a binomial
// tree rooted at src, and returns per-target completion times (sorted
// by node). The source first reads the image from its own disk (the
// NFS server reading the file); every hop transfers the full image and
// persists it on the receiver's disk before forwarding. effRate > 0
// throttles each hop (only meaningful on the sim fabric).
func Binomial(ctx *cluster.Ctx, src cluster.NodeID, targets []cluster.NodeID, bytes int64, effRate float64) []Result {
	order := append([]cluster.NodeID{src}, targets...)
	n := len(order)
	results := make([]Result, 0, len(targets))
	if n == 1 || bytes <= 0 {
		return results
	}
	// The source stages the image from its disk once.
	ctx.DiskRead(src, bytes)

	simFab, _ := ctx.Fabric().(*cluster.Sim)

	resCh := make(chan Result, len(targets))
	var forward func(cc *cluster.Ctx, rank int)
	forward = func(cc *cluster.Ctx, rank int) {
		var tasks []cluster.Task
		for _, cr := range childRanks(rank, n) {
			child := order[cr]
			// Store-and-forward hop: transfer (throttled), then persist.
			if simFab != nil && effRate > 0 {
				throttle := simFab.Net().NewLink("bcast-hop", effRate)
				simFab.TransferVia(cc, order[rank], child, bytes, throttle)
			} else {
				cc.RPC(child, bytes, 16)
			}
			cr := cr
			tasks = append(tasks, cc.Go("bcast-recv", child, func(childCtx *cluster.Ctx) {
				childCtx.DiskWrite(child, bytes)
				resCh <- Result{Node: child, Done: childCtx.Now()}
				forward(childCtx, cr)
			}))
		}
		cc.WaitAll(tasks)
	}
	forward(ctx, 0)
	close(resCh)
	for r := range resCh {
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Node < results[j].Node })
	return results
}

// childRanks returns the children of rank i in a binomial tree over
// ranks 0..n-1: rank 0 feeds 1, 2, 4, ...; rank i>0 (first reached at
// round floor(log2 i)+1) feeds i+2^j for j starting above i's highest
// set bit.
func childRanks(i, n int) []int {
	var out []int
	jmin := 0
	if i > 0 {
		jmin = bits.Len(uint(i)) // highest set bit position + 1
	}
	for j := jmin; i+(1<<j) < n; j++ {
		out = append(out, i+(1<<j))
	}
	return out
}

// Control disseminates a small control message of the given size from
// src to every target along the same binomial tree as Binomial. Unlike
// the bulk broadcast there is no store-and-forward persistence: each
// hop is a plain RPC, so the whole dissemination costs O(log n) RPC
// latencies of depth. This is the primitive the p2p chunk-sharing
// layer disseminates cohort membership with. It returns once every
// target has received the message.
func Control(ctx *cluster.Ctx, src cluster.NodeID, targets []cluster.NodeID, bytes int64) {
	order := append([]cluster.NodeID{src}, targets...)
	n := len(order)
	if n == 1 || bytes <= 0 {
		return
	}
	var forward func(cc *cluster.Ctx, rank int)
	forward = func(cc *cluster.Ctx, rank int) {
		var tasks []cluster.Task
		for _, cr := range childRanks(rank, n) {
			child := order[cr]
			cc.RPC(child, bytes, 16)
			cr := cr
			tasks = append(tasks, cc.Go("ctl-recv", child, func(childCtx *cluster.Ctx) {
				forward(childCtx, cr)
			}))
		}
		cc.WaitAll(tasks)
	}
	forward(ctx, 0)
}

// Completion returns the latest completion time among results (0 for
// an empty broadcast).
func Completion(results []Result) float64 {
	var max float64
	for _, r := range results {
		if r.Done > max {
			max = r.Done
		}
	}
	return max
}
