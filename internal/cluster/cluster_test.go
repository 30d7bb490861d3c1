package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func testConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	// Round numbers make the expected costs below easy to derive.
	cfg.NICBandwidth = 100e6
	cfg.RTT = 1e-3
	cfg.ReqOverhead = 1e-3
	cfg.LocalRPC = 1e-4
	cfg.DiskBandwidth = 50e6
	cfg.DiskSeek = 10e-3
	return cfg
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(120)
	if cfg.NICBandwidth != 117.5e6 {
		t.Errorf("NICBandwidth = %v, want 117.5e6 (paper §5.1)", cfg.NICBandwidth)
	}
	if cfg.DiskBandwidth != 55e6 {
		t.Errorf("DiskBandwidth = %v, want 55e6 (paper §5.1)", cfg.DiskBandwidth)
	}
	if cfg.RTT != 1e-4 {
		t.Errorf("RTT = %v, want 1e-4 (paper §5.1)", cfg.RTT)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Nodes: 0, NICBandwidth: 1, DiskBandwidth: 1, WriteBuffer: 1},
		{Nodes: 1, NICBandwidth: 0, DiskBandwidth: 1, WriteBuffer: 1},
		{Nodes: 1, NICBandwidth: 1, DiskBandwidth: 1, WriteBuffer: 0},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v validated, want error", bad)
		}
	}
}

func TestSimRPCCost(t *testing.T) {
	cfg := testConfig(4)
	f := NewSim(cfg)
	var elapsed float64
	f.Run(func(ctx *Ctx) {
		// 10 MB response at 100 MB/s = 0.1 s, plus RTT+overhead 2 ms.
		ctx.RPC(1, 0, 10e6)
		elapsed = ctx.Now()
	})
	if !almostEq(elapsed, 0.102) {
		t.Fatalf("RPC took %v, want 0.102", elapsed)
	}
	if f.NetTraffic() != 10e6 {
		t.Fatalf("traffic = %d, want 10e6", f.NetTraffic())
	}
}

func TestSimLocalRPCIsCheapAndUncounted(t *testing.T) {
	f := NewSim(testConfig(2))
	var elapsed float64
	f.Run(func(ctx *Ctx) {
		ctx.RPC(0, 1e6, 1e6) // node-local
		elapsed = ctx.Now()
	})
	if !almostEq(elapsed, 1e-4) {
		t.Fatalf("local RPC took %v, want 1e-4", elapsed)
	}
	if f.NetTraffic() != 0 {
		t.Fatalf("local RPC counted traffic: %d", f.NetTraffic())
	}
}

func TestSimDiskReadCost(t *testing.T) {
	f := NewSim(testConfig(2))
	var elapsed float64
	f.Run(func(ctx *Ctx) {
		// 50 MB at 50 MB/s = 1 s plus one 10 ms seek.
		ctx.DiskRead(0, 50e6)
		elapsed = ctx.Now()
	})
	if !almostEq(elapsed, 1.01) {
		t.Fatalf("disk read took %v, want 1.01", elapsed)
	}
}

func TestSimAsyncWriteReturnsBeforeDiskDrains(t *testing.T) {
	cfg := testConfig(2)
	cfg.WriteBuffer = 100 << 20
	f := NewSim(cfg)
	var ackAt float64
	f.Run(func(ctx *Ctx) {
		ctx.DiskWriteAsync(0, 50e6)
		ackAt = ctx.Now()
	})
	if ackAt != 0 {
		t.Fatalf("async write acked at %v, want 0 (buffered)", ackAt)
	}
	// The background drain still costs disk time.
	if f.Now() < 1.0 {
		t.Fatalf("simulation ended at %v, want >= 1.0 (drain)", f.Now())
	}
}

func TestSimAsyncWriteBackpressure(t *testing.T) {
	cfg := testConfig(2)
	cfg.WriteBuffer = 10e6
	f := NewSim(cfg)
	var secondAck float64
	f.Run(func(ctx *Ctx) {
		ctx.DiskWriteAsync(0, 10e6) // fills the buffer; drain takes ~0.21 s
		ctx.DiskWriteAsync(0, 10e6) // must wait for the first drain
		secondAck = ctx.Now()
	})
	if secondAck <= 0.2 {
		t.Fatalf("second ack at %v, want > 0.2 (backpressure)", secondAck)
	}
}

// TestSimWriteBackPriority: ordinary write-back shares the disk with a
// read; idle write-back leaves it to the read and drains after it, with
// the same bytes and seek charged.
func TestSimWriteBackPriority(t *testing.T) {
	for _, tc := range []struct {
		name        string
		write       func(*Ctx)
		read, drain float64
	}{
		{"write-back shares", func(c *Ctx) { c.DiskWriteAsync(0, 50e6) }, 2.02, 2.02},
		{"idle write-back waits", func(c *Ctx) { c.DiskWriteIdle(0, 50e6) }, 1.01, 2.02},
	} {
		f := NewSim(testConfig(2))
		var read float64
		f.Run(func(ctx *Ctx) {
			tc.write(ctx)
			ctx.DiskRead(0, 50e6)
			read = ctx.Now()
		})
		if !almostEq(read, tc.read) || !almostEq(f.Now(), tc.drain) {
			t.Errorf("%s: read done at %v, drain at %v; want %v, %v", tc.name, read, f.Now(), tc.read, tc.drain)
		}
	}
}

// TestSimIdleWriteOversized: an idle write larger than the buffer
// bypasses it, and its caller waits for it at idle priority, not as a
// foreground job that would slow a concurrent read.
func TestSimIdleWriteOversized(t *testing.T) {
	cfg := testConfig(2)
	cfg.WriteBuffer = 10e6
	f := NewSim(cfg)
	var read, write float64
	f.Run(func(ctx *Ctx) {
		r := ctx.Go("read", 0, func(c *Ctx) { c.DiskRead(0, 50e6); read = c.Now() })
		ctx.DiskWriteIdle(0, 20e6)
		write = ctx.Now()
		ctx.Wait(r)
	})
	if !almostEq(read, 1.01) || !almostEq(write, 1.42) {
		t.Fatalf("read done at %v, write at %v; want 1.01, 1.42", read, write)
	}
}

// TestSimDiskAppend: a node's appends drain one at a time in arrival
// order, and only one that finds the log idle pays a seek. Each frees
// its buffer space as its own bytes land, which is when a writer held
// back by a full buffer gets in. An append larger than the buffer goes
// straight to disk; the live fabric charges nothing. With testConfig a
// 10 MB append is 0.2 s of disk and a seek 0.01 s.
func TestSimDiskAppend(t *testing.T) {
	appendAcks := func(c *Ctx, n int, bytes int64) []float64 {
		acks := make([]float64, n)
		for i := range acks {
			c.DiskAppend(0, bytes)
			acks[i] = c.Now()
		}
		return acks
	}
	for _, tc := range []struct {
		name   string
		buffer int64
		run    func(*Ctx) []float64 // the writer's ack times
		acks   []float64
		end    float64
	}{
		{"appends together pay one seek", 100e6,
			func(c *Ctx) []float64 { return appendAcks(c, 3, 10e6) },
			[]float64{0, 0, 0}, 0.61},
		{"space frees in arrival order", 30e6,
			func(c *Ctx) []float64 { return appendAcks(c, 6, 10e6) },
			[]float64{0, 0, 0, 0.21, 0.41, 0.61}, 1.21},
		{"an append after the log drained seeks again", 100e6,
			func(c *Ctx) []float64 {
				c.DiskAppend(0, 10e6)
				c.Sleep(1)
				return appendAcks(c, 1, 10e6)
			},
			[]float64{1}, 1.21},
		{"an oversized append goes straight to disk", 10e6,
			func(c *Ctx) []float64 { return appendAcks(c, 1, 20e6) },
			[]float64{0.41}, 0.41},
	} {
		cfg := testConfig(2)
		cfg.WriteBuffer = tc.buffer
		f := NewSim(cfg)
		var acks []float64
		f.Run(func(ctx *Ctx) { acks = tc.run(ctx) })
		for i, want := range tc.acks {
			if !almostEq(acks[i], want) {
				t.Errorf("%s: append %d acked at %v, want %v", tc.name, i, acks[i], want)
			}
		}
		if !almostEq(f.Now(), tc.end) {
			t.Errorf("%s: log drained at %v, want %v", tc.name, f.Now(), tc.end)
		}
	}
	live := NewLive(2)
	live.Run(func(ctx *Ctx) { ctx.DiskAppend(1, 10e6) })
	if live.Now() != 0 {
		t.Errorf("live append took %v, want no time", live.Now())
	}
}

func TestSimDiskSharing(t *testing.T) {
	f := NewSim(testConfig(2))
	var d1, d2 float64
	f.Run(func(ctx *Ctx) {
		t1 := ctx.Go("r1", 0, func(c *Ctx) { c.DiskRead(0, 50e6); d1 = c.Now() })
		t2 := ctx.Go("r2", 0, func(c *Ctx) { c.DiskRead(0, 50e6); d2 = c.Now() })
		ctx.Wait(t1)
		ctx.Wait(t2)
	})
	// Two 1.01 s jobs sharing the disk: both complete at ~2.02 s.
	if !almostEq(d1, 2.02) || !almostEq(d2, 2.02) {
		t.Fatalf("done at %v, %v; want 2.02 each (PS sharing)", d1, d2)
	}
}

func TestSimUplinkContention(t *testing.T) {
	// N nodes all fetch 10 MB from node 0 concurrently: node 0's uplink
	// (100 MB/s) is the bottleneck, so total time ~= N*10MB/100MB/s.
	cfg := testConfig(9)
	f := NewSim(cfg)
	var last float64
	f.Run(func(ctx *Ctx) {
		var tasks []Task
		for n := 1; n <= 8; n++ {
			node := NodeID(n)
			tasks = append(tasks, ctx.Go("fetch", node, func(c *Ctx) {
				c.RPC(0, 64, 10e6)
				if c.Now() > last {
					last = c.Now()
				}
			}))
		}
		ctx.WaitAll(tasks)
	})
	want := 8 * 10e6 / 100e6 // 0.8 s transfer, plus RTT+overhead
	if last < want || last > want+0.01 {
		t.Fatalf("last fetch at %v, want ~%v (uplink contention)", last, want)
	}
}

func TestSimParallelJoins(t *testing.T) {
	f := NewSim(testConfig(2))
	var doneAt float64
	f.Run(func(ctx *Ctx) {
		var tasks []Task
		for _, d := range []float64{1, 3, 2} {
			tasks = append(tasks, ctx.Go("p", ctx.Node(), func(c *Ctx) { c.Sleep(d) }))
		}
		ctx.WaitAll(tasks)
		doneAt = ctx.Now()
	})
	if !almostEq(doneAt, 3) {
		t.Fatalf("WaitAll returned at %v, want 3", doneAt)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		f := NewSim(testConfig(16))
		f.Run(func(ctx *Ctx) {
			var tasks []Task
			for n := 0; n < 16; n++ {
				node := NodeID(n)
				tasks = append(tasks, ctx.Go("w", node, func(c *Ctx) {
					for i := 0; i < 10; i++ {
						c.RPC(NodeID((int(node)+i+1)%16), 256, 1e6)
						c.DiskWriteAsync(node, 512<<10)
					}
				}))
			}
			ctx.WaitAll(tasks)
		})
		return f.Now(), f.NetTraffic()
	}
	t1, tr1 := run()
	t2, tr2 := run()
	if t1 != t2 || tr1 != tr2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, tr1, t2, tr2)
	}
}

func TestLiveRunsRealGoroutines(t *testing.T) {
	f := NewLive(8)
	var count atomic.Int64
	f.Run(func(ctx *Ctx) {
		var tasks []Task
		for n := 0; n < 8; n++ {
			tasks = append(tasks, ctx.Go("w", NodeID(n), func(c *Ctx) {
				c.Sleep(1) // free on the live fabric
				c.RPC(0, 100, 100)
				count.Add(1)
			}))
		}
		ctx.WaitAll(tasks)
		if count.Load() != 8 {
			t.Errorf("count = %d before WaitAll returned, want 8", count.Load())
		}
	})
	if f.Now() != 0 {
		t.Fatalf("live Now() = %v, want 0", f.Now())
	}
	// 7 of 8 RPCs are off-node (node 0's is local).
	if f.NetTraffic() != 7*200 {
		t.Fatalf("traffic = %d, want 1400", f.NetTraffic())
	}
}

func TestLiveTrafficReset(t *testing.T) {
	f := NewLive(2)
	f.Run(func(ctx *Ctx) { ctx.RPC(1, 10, 20) })
	if f.NetTraffic() != 30 {
		t.Fatalf("traffic = %d, want 30", f.NetTraffic())
	}
	f.ResetTraffic()
	if f.NetTraffic() != 0 {
		t.Fatalf("traffic after reset = %d, want 0", f.NetTraffic())
	}
}

// TestNodeRangeChecks: every disk op on either fabric panics on a node
// outside the cluster, and the panic names the node.
func TestNodeRangeChecks(t *testing.T) {
	ops := map[string]func(*Ctx, NodeID, int64){
		"DiskRead":       (*Ctx).DiskRead,
		"DiskWrite":      (*Ctx).DiskWrite,
		"DiskWriteAsync": (*Ctx).DiskWriteAsync,
		"DiskWriteIdle":  (*Ctx).DiskWriteIdle,
		"DiskAppend":     (*Ctx).DiskAppend,
	}
	fabrics := map[string]func() Fabric{
		"live": func() Fabric { return NewLive(2) },
		"sim":  func() Fabric { return NewSim(testConfig(2)) },
	}
	for fname, newFab := range fabrics {
		for oname, op := range ops {
			t.Run(fname+"/"+oname, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("out-of-range node did not panic")
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, "node 5 out of range") {
						t.Fatalf("panic %q does not name the node", msg)
					}
				}()
				newFab().Run(func(ctx *Ctx) { op(ctx, 5, 10) })
			})
		}
	}
}

// TestSimRPCAllocatesNothing: once the flow network is warm, a
// simulated RPC whose response is carried as a flow allocates nothing.
// The path is built in a buffer on the caller's stack and the pooled
// flow copies it into the array it kept from its last transfer. The
// per-RPC count is taken between the 100th and the 1,100th call, so a
// one-off growth of the event heap or a scratch slice does not count.
func TestSimRPCAllocatesNothing(t *testing.T) {
	f := NewSim(testConfig(2))
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var at100, at1100 uint64
	f.Run(func(ctx *Ctx) {
		ctx.RPC(1, 0, 256<<10) // warm-up
		start := mallocs()
		for i := 1; i <= 1100; i++ {
			ctx.RPC(1, 0, 256<<10)
			if i == 100 {
				at100 = mallocs() - start
			}
		}
		at1100 = mallocs() - start
	})
	if per := float64(at1100-at100) / 1000; per != 0 {
		t.Errorf("a warm 256 KiB RPC allocated %.3f objects, want 0 (%d over 100 calls, %d over 1,100)", per, at100, at1100)
	}
}
