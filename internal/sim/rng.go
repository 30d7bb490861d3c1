package sim

import "math/rand"

// RNG is a deterministic random source for simulation models. It wraps
// math/rand with an explicit seed so that every experiment is exactly
// reproducible; models must never use the global rand functions.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a source seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent stream from this one; useful to give each
// simulated entity its own stream so entity counts don't perturb the
// sequences other entities observe.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0,n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
