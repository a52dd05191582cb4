package tensor

import (
	"math"
	"slices"
)

// RNG is a small, fast, seedable pseudo-random generator (splitmix64 core)
// used everywhere randomness appears in the reproduction so that every
// experiment is deterministic given its seed. math/rand would also work,
// but a local implementation pins the exact sequence across Go versions.
type RNG struct {
	state uint64
	// spare holds a cached second Gaussian sample from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal sample via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// ExpFloat64 returns an exponential sample with mean 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.PermInto(nil, n) }

// PermInto is Perm written into dst's storage, grown only when it is
// shorter than n: the same draws, and no allocation once dst is large
// enough.
func (r *RNG) PermInto(dst []int, n int) []int {
	p := slices.Grow(dst[:0], n)[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns an independent generator derived from this one's stream, so
// subsystems can draw without perturbing each other's sequences.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// FillUniform fills t with uniform samples in [lo, hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*r.Float64()
	}
}

// FillNormal fills t with Gaussian samples of the given mean and stddev.
func (r *RNG) FillNormal(t *Tensor, mean, stddev float64) {
	for i := range t.data {
		t.data[i] = mean + stddev*r.NormFloat64()
	}
}

// FillXavier fills a rank-2 weight tensor using Glorot/Xavier scaling, the
// initializer the zoo uses so synthesized layers have realistic spectra.
func (r *RNG) FillXavier(t *Tensor) {
	if t.shape.Rank() != 2 {
		r.FillNormal(t, 0, 0.05)
		return
	}
	fanIn, fanOut := t.shape[1], t.shape[0]
	stddev := math.Sqrt(2.0 / float64(fanIn+fanOut))
	r.FillNormal(t, 0, stddev)
}
