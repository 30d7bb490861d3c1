package workloads

import (
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/localio"
)

func TestBonnieShapeMatchesPaper(t *testing.T) {
	// The qualitative claims of §5.4: reads equal, writes/overwrites
	// roughly double for the mirror path, ops/s lower for the mirror
	// path with the largest gap on deletions.
	r := RunBonnie(localio.DirectPath(), DefaultBonnieConfig())
	m := RunBonnie(localio.MirrorPath(), DefaultBonnieConfig())

	readRatio := float64(m.BlockReadKBps) / float64(r.BlockReadKBps)
	if readRatio < 0.85 || readRatio > 1.15 {
		t.Fatalf("read ratio %.2f, want ~1 (reads equal)", readRatio)
	}
	writeRatio := float64(m.BlockWriteKBps) / float64(r.BlockWriteKBps)
	if writeRatio < 1.5 || writeRatio > 2.5 {
		t.Fatalf("write ratio %.2f, want ~2 (mmap write-back)", writeRatio)
	}
	if m.SeeksPerSec >= r.SeeksPerSec {
		t.Fatal("mirror path seeks not slower")
	}
	if m.DeletesPerSec >= r.DeletesPerSec {
		t.Fatal("mirror path deletes not slower")
	}
	delGap := float64(m.DeletesPerSec) / float64(r.DeletesPerSec)
	creatGap := float64(m.CreatesPerSec) / float64(r.CreatesPerSec)
	if delGap >= creatGap {
		t.Fatalf("delete gap %.2f not worse than create gap %.2f", delGap, creatGap)
	}
}

func TestBonnieAbsoluteScale(t *testing.T) {
	// Keep the calibration in the paper's ballpark (Fig. 6 axes are
	// 0..500000 KB/s; local write ~230 MB/s, mirror write ~450 MB/s).
	r := RunBonnie(localio.DirectPath(), DefaultBonnieConfig())
	m := RunBonnie(localio.MirrorPath(), DefaultBonnieConfig())
	if r.BlockWriteKBps < 150e3 || r.BlockWriteKBps > 350e3 {
		t.Fatalf("local BlockW = %d KB/s, want 150k-350k", r.BlockWriteKBps)
	}
	if m.BlockWriteKBps < 350e3 || m.BlockWriteKBps > 600e3 {
		t.Fatalf("mirror BlockW = %d KB/s, want 350k-600k", m.BlockWriteKBps)
	}
	if r.SeeksPerSec < 20e3 || r.SeeksPerSec > 45e3 {
		t.Fatalf("local seeks = %d /s, want 20k-45k", r.SeeksPerSec)
	}
}

func TestMonteCarloPhaseTiming(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(1))
	cfg := MonteCarloConfig{ComputeSeconds: 100, SaveEvery: 30, SaveBytes: 1 << 20, SaveOffset: 0}
	var elapsed float64
	fab.Run(func(ctx *cluster.Ctx) {
		disk := &fakeDisk{size: 1 << 30}
		if err := RunMonteCarloPhase(ctx, disk, cfg, 100); err != nil {
			t.Fatal(err)
		}
		elapsed = ctx.Now()
		if disk.writes != 4 { // saves at 30, 60, 90, 100
			t.Fatalf("saves = %d, want 4", disk.writes)
		}
	})
	if elapsed < 100 {
		t.Fatalf("phase took %v < 100 s of compute", elapsed)
	}
}

func TestMonteCarloPhaseResumable(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(1))
	cfg := MonteCarloConfig{ComputeSeconds: 100, SaveEvery: 40, SaveBytes: 1 << 10, SaveOffset: 0}
	fab.Run(func(ctx *cluster.Ctx) {
		disk := &fakeDisk{size: 1 << 20}
		if err := RunMonteCarloPhase(ctx, disk, cfg, 50); err != nil {
			t.Fatal(err)
		}
		if err := RunMonteCarloPhase(ctx, disk, cfg, 50); err != nil {
			t.Fatal(err)
		}
		if ctx.Now() < 100 {
			t.Fatalf("two halves took %v < 100 s", ctx.Now())
		}
	})
}

type fakeDisk struct {
	size   int64
	writes int
}

func (d *fakeDisk) Read(*cluster.Ctx, int64, int64) error { return nil }
func (d *fakeDisk) Write(*cluster.Ctx, int64, int64) error {
	d.writes++
	return nil
}
func (d *fakeDisk) Size() int64 { return d.size }
