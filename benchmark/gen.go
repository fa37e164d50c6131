package main

import "math"

// rnd is the benchmark's own generator (splitmix64): every input the
// database receives — keys, amounts, operation kinds, TPC-C/TPC-H parameter
// seeds — is drawn from it, so one -seed gives one input sequence per client
// whatever the program under test does with its own random sources.
type rnd struct{ s uint64 }

func newRnd(seed, stream uint64) *rnd {
	r := &rnd{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rnd) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rnd) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rnd) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et al.'s
// method, as YCSB uses it). n must be a power of two: ranks are scattered
// over the key space with an odd multiplier so hot keys are not neighbours in
// the index or in one cache shard.
type zipf struct {
	r                   *rnd
	n                   uint64
	theta, alpha, zetan float64
	eta, halfPowTheta   float64
}

func newZipf(r *rnd, n uint64, theta float64) *zipf {
	zeta := func(k uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{r: r, n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

// clone shares the (costly) zeta constants and draws from r instead.
func (z *zipf) clone(r *rnd) *zipf {
	c := *z
	c.r = r
	return &c
}

func (z *zipf) next() uint64 {
	u := z.r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.halfPowTheta:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return (rank * 0x9e3779b1) & (z.n - 1)
}
