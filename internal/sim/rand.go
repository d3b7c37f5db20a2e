package sim

import (
	"math"
	"math/rand"
	"sort"
)

// RNG wraps a seeded random source with the variate generators needed by
// the workload and failure models. It is deliberately deterministic: the
// same seed reproduces the same trace, which the experiment harness relies
// on when comparing scheduling policies on identical workloads.
//
// RNG is not safe for concurrent use; derive per-goroutine streams with
// Stream.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent child generator. Child streams are stable
// functions of (parent seed, id), so adding a consumer does not perturb
// the draws seen by existing consumers.
func (g *RNG) Stream(id int64) *RNG {
	// SplitMix64-style mixing of the id with a fresh seed drawn once.
	z := uint64(g.r.Int63()) + uint64(id)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(int64(z ^ (z >> 31)))
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential draw with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// LogNormal returns a draw from a log-normal distribution parameterized
// by the underlying normal's mu and sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Normal returns a normal draw.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Poisson returns a Poisson draw with the given mean, using Knuth's
// method for small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(g.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Shuffle permutes a slice in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// WeightedChoice returns an index drawn proportionally to weights. It
// panics if the weights are empty or sum to a non-positive value.
func (g *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("sim: weighted choice over empty or zero-sum weights")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Histogram accumulates values and reports distribution summaries. It is
// used to build the CDFs in Figure 4 and the daily aggregates in Figure 3.
type Histogram struct {
	values []float64
	sorted bool
}

// Add records a value.
func (h *Histogram) Add(v float64) {
	h.values = append(h.values, v)
	h.sorted = false
}

// N returns the number of recorded values.
func (h *Histogram) N() int { return len(h.values) }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() float64 {
	s := 0.0
	for _, v := range h.values {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if len(h.values) == 0 {
		return 0
	}
	return h.Sum() / float64(len(h.values))
}

// Max returns the maximum recorded value, or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	m := 0.0
	for i, v := range h.values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.values)
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.values) == 0 {
		return 0
	}
	h.sort()
	idx := int(math.Ceil(q*float64(len(h.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.values) {
		idx = len(h.values) - 1
	}
	return h.values[idx]
}

// CDF returns the empirical distribution as (value, cumulative
// probability) pairs over the distinct recorded values.
func (h *Histogram) CDF() (values, probs []float64) {
	if len(h.values) == 0 {
		return nil, nil
	}
	h.sort()
	n := float64(len(h.values))
	for i := 0; i < len(h.values); {
		j := i
		for j < len(h.values) && h.values[j] == h.values[i] {
			j++
		}
		values = append(values, h.values[i])
		probs = append(probs, float64(j)/n)
		i = j
	}
	return values, probs
}
