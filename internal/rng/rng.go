// Package rng provides fast, deterministic pseudo-random number generation
// for workload drivers and tests.
//
// The generators here are deliberately not cryptographic: benchmark drivers
// need reproducible streams that can be split per worker and per transaction
// context without contention on a shared source. The core generator is
// xoshiro256**, seeded through splitmix64 as recommended by its authors.
package rng

import "math"

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is not safe for concurrent use; give each context its own Rand,
// typically via Split.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next stream value. It is used
// only to initialize xoshiro state so that nearby seeds produce uncorrelated
// streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from both r's past and future output.
func (r *Rand) Split() *Rand {
	seed := r.Uint64() ^ 0xa0761d6478bd642f
	return New(seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless method with rejection for exact uniformity.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform value in [lo, hi] inclusive, per the TPC-C
// specification's random(x..y) helper.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x.
// The constant C is fixed per generator so a load and a run phase built from
// the same seed agree, as the specification requires for C_LAST.
func (r *Rand) NURand(a, x, y int) int {
	c := int(r.s[3] % uint64(a+1)) // stable per-generator constant
	return ((r.IntRange(0, a)|r.IntRange(x, y))+c)%(y-x+1) + x
}

// AString fills a TPC-C "a-string": random alphanumeric characters with
// length uniform in [lo, hi].
func (r *Rand) AString(lo, hi int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := r.IntRange(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

// NString fills a TPC-C "n-string": random numeric characters with length
// uniform in [lo, hi].
func (r *Rand) NString(lo, hi int) string {
	n := r.IntRange(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

// LastName produces a TPC-C customer last name for a number in [0, 999].
func LastName(num int) string {
	syllables := [...]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	return syllables[num/100%10] + syllables[num/10%10] + syllables[num%10]
}

// Zipf generates Zipf-distributed values in [0, n) with skew theta using the
// rejection-inversion method of Hörmann and Derflinger, the standard choice
// for database benchmarks (YCSB uses the same construction).
type Zipf struct {
	r                 *Rand
	n                 uint64
	theta             float64
	alpha, zetan, eta float64
}

// NewZipf returns a Zipf generator over [0, n) with parameter theta in (0, 1).
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	z := &Zipf{r: r, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed value.
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
