package workloads

import (
	"blobvfs/internal/cluster"
	"blobvfs/internal/vmmodel"
)

// MonteCarloConfig describes the π-estimation application of §5.5:
// loosely coupled workers, each alternating CPU-bound sampling with
// saving intermediate results into a temporary file inside the VM
// image (~10 MB per instance).
type MonteCarloConfig struct {
	// ComputeSeconds is the total CPU time each worker needs.
	ComputeSeconds float64
	// SaveEvery is the CPU time between intermediate saves.
	SaveEvery float64
	// SaveBytes is the size of each intermediate result write.
	SaveBytes int64
	// SaveOffset is where in the image the temporary file lives.
	SaveOffset int64
}

// DefaultMonteCarloConfig returns the paper's setup (≈1000 s of total
// computation across phases, ≈10 MB state per instance).
func DefaultMonteCarloConfig() MonteCarloConfig {
	return MonteCarloConfig{
		ComputeSeconds: 1000,
		SaveEvery:      100,
		SaveBytes:      10 << 20,
		SaveOffset:     1 << 30, // scratch area deep in the 2 GB image
	}
}

// RunMonteCarloPhase runs `seconds` of one worker's computation on its
// VM: sampling (CPU) interleaved with intermediate-result writes. It
// is resumable: the caller tracks how many seconds have been executed.
func RunMonteCarloPhase(ctx *cluster.Ctx, disk vmmodel.VirtualDisk, cfg MonteCarloConfig, seconds float64) error {
	done := 0.0
	for done < seconds {
		step := cfg.SaveEvery
		if done+step > seconds {
			step = seconds - done
		}
		ctx.Sleep(step)
		done += step
		if err := disk.Write(ctx, cfg.SaveOffset, cfg.SaveBytes); err != nil {
			return err
		}
	}
	return nil
}

// EstimatePi is the actual computation the workers perform, provided
// so the examples run a real Monte Carlo estimation rather than a
// stub: n pseudo-random points, returning the π estimate. The sampler
// is a small deterministic LCG so results are reproducible.
func EstimatePi(n int, seed uint64) float64 {
	if n <= 0 {
		return 0
	}
	state := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	in := 0
	for i := 0; i < n; i++ {
		x, y := next(), next()
		if x*x+y*y <= 1 {
			in++
		}
	}
	return 4 * float64(in) / float64(n)
}
