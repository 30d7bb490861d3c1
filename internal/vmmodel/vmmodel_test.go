package vmmodel

import (
	"math"
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

func TestBootTraceBudget(t *testing.T) {
	cfg := DefaultBootConfig(2 << 30)
	ops := GenBootTrace(sim.NewRNG(1), cfg)
	if len(ops) == 0 {
		t.Fatal("empty trace")
	}
	read, written := TraceBytes(ops)
	// Touched bytes within 25% of the configured budget.
	lo, hi := float64(cfg.TouchedBytes)*0.75, float64(cfg.TouchedBytes)*1.25
	if float64(read) < lo || float64(read) > hi {
		t.Fatalf("trace reads %d bytes, want within [%g,%g]", read, lo, hi)
	}
	if written != int64(cfg.WriteOps)*cfg.WriteLen {
		t.Fatalf("trace writes %d bytes, want %d", written, int64(cfg.WriteOps)*cfg.WriteLen)
	}
	var think float64
	for _, op := range ops {
		think += op.Think
		if op.Off < 0 || op.Off+op.Len > cfg.ImageSize {
			t.Fatalf("op [%d,%d) outside image", op.Off, op.Off+op.Len)
		}
		if op.Len <= 0 {
			t.Fatalf("non-positive op length %d", op.Len)
		}
	}
	if math.Abs(think-cfg.TotalThink) > 0.25*cfg.TotalThink {
		t.Fatalf("total think %v, want ~%v", think, cfg.TotalThink)
	}
}

func TestBootTraceTouchesFractionOfImage(t *testing.T) {
	cfg := DefaultBootConfig(2 << 30)
	ops := GenBootTrace(sim.NewRNG(2), cfg)
	touched := TraceChunks(ops, 256<<10)
	totalChunks := int(cfg.ImageSize / (256 << 10))
	if touched >= totalChunks/2 {
		t.Fatalf("boot touches %d of %d chunks; must be a small fraction (§2.3)", touched, totalChunks)
	}
	if touched < 300 {
		t.Fatalf("boot touches only %d chunks; trace too concentrated", touched)
	}
}

func TestBootTraceReadsAreExtentLocal(t *testing.T) {
	// Consecutive read ops should frequently be adjacent (sequential
	// file reads) — that locality is what chunk prefetching exploits.
	cfg := DefaultBootConfig(2 << 30)
	ops := GenBootTrace(sim.NewRNG(3), cfg)
	adjacent, reads := 0, 0
	var prevEnd int64 = -1
	for _, op := range ops {
		if op.Write {
			continue
		}
		if op.Off == prevEnd {
			adjacent++
		}
		prevEnd = op.Off + op.Len
		reads++
	}
	if float64(adjacent) < 0.5*float64(reads) {
		t.Fatalf("only %d/%d reads sequential; trace lacks extent locality", adjacent, reads)
	}
}

func TestBootTraceDeterminism(t *testing.T) {
	cfg := DefaultBootConfig(1 << 30)
	a := GenBootTrace(sim.NewRNG(7), cfg)
	b := GenBootTrace(sim.NewRNG(7), cfg)
	if len(a) != len(b) {
		t.Fatal("same seed, different trace lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, traces diverge at op %d", i)
		}
	}
}

func TestWithThinkJitterKeepsAccessesChangesThink(t *testing.T) {
	cfg := DefaultBootConfig(1 << 30)
	base := GenBootTrace(sim.NewRNG(7), cfg)
	j1 := WithThinkJitter(base, sim.NewRNG(100), cfg.TotalThink)
	j2 := WithThinkJitter(base, sim.NewRNG(200), cfg.TotalThink)
	sameThink := true
	for i := range base {
		if j1[i].Off != base[i].Off || j1[i].Len != base[i].Len || j1[i].Write != base[i].Write {
			t.Fatal("jitter changed the access pattern")
		}
		if j1[i].Think != j2[i].Think {
			sameThink = false
		}
	}
	if sameThink {
		t.Fatal("different jitter streams produced identical think times")
	}
}

func TestLocalRawBootCostsOnlyLocalDisk(t *testing.T) {
	cfg := cluster.DefaultConfig(2)
	fab := cluster.NewSim(cfg)
	bootCfg := DefaultBootConfig(2 << 30)
	trace := GenBootTrace(sim.NewRNG(9), bootCfg)
	var elapsed float64
	fab.Run(func(ctx *cluster.Ctx) {
		vm := &VM{Node: 0, Disk: &LocalRaw{NodeID: 0, Bytes: bootCfg.ImageSize}}
		if err := vm.Boot(ctx, trace); err != nil {
			t.Fatal(err)
		}
		elapsed = ctx.Now()
	})
	if fab.NetTraffic() != 0 {
		t.Fatalf("local boot generated %d bytes of traffic", fab.NetTraffic())
	}
	// Sanity window for the calibrated local boot time (paper ~10 s).
	if elapsed < 5 || elapsed > 25 {
		t.Fatalf("local boot took %.1f s, want 5-25 (calibration drifted)", elapsed)
	}
}

func TestLocalRawBoundsChecked(t *testing.T) {
	fab := cluster.NewLive(1)
	fab.Run(func(ctx *cluster.Ctx) {
		d := &LocalRaw{NodeID: 0, Bytes: 1000}
		if err := d.Read(ctx, 990, 20); err == nil {
			t.Error("read past end accepted")
		}
		if err := d.Write(ctx, -1, 5); err == nil {
			t.Error("negative write offset accepted")
		}
		if d.Size() != 1000 {
			t.Errorf("Size = %d", d.Size())
		}
	})
}

// TraceBytes sums the bytes read (and separately written) by a trace.
func TraceBytes(ops []TraceOp) (read, written int64) {
	for _, op := range ops {
		if op.Write {
			written += op.Len
		} else {
			read += op.Len
		}
	}
	return
}

// TraceChunks counts the distinct chunkSize-aligned chunks a trace
// touches, i.e. the chunks a lazy mirror would fetch.
func TraceChunks(ops []TraceOp, chunkSize int64) int {
	touched := make(map[int64]bool)
	for _, op := range ops {
		for c := op.Off / chunkSize; c <= (op.Off+op.Len-1)/chunkSize; c++ {
			touched[c] = true
		}
	}
	return len(touched)
}
