// Package rng provides the deterministic random-number machinery used by
// every stochastic part of the simulator: a xoshiro256★★ generator with
// SplitMix64 seeding, splittable sub-streams so each experiment and each
// entity draws from an independent reproducible sequence, and Gaussian /
// complex-AWGN sampling for noise injection.
//
// The package deliberately avoids math/rand so that results are stable
// across Go releases and so streams can be split hierarchically.
package rng

import "math"

// Source is a xoshiro256★★ pseudo-random generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
	// cached spare Gaussian sample for the polar method
	spare    float64
	hasSpare bool
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used
// to expand seeds into full generator state, as recommended by the
// xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.seed(seed)
	return s
}

// seed expands seed into the generator state. It is kept out of line so
// New stays within the inlining budget: inlined, a Source that does not
// escape its caller lives on the caller's stack.
//
//go:noinline
func (s *Source) seed(seed uint64) {
	x := seed
	for i := range s.s {
		s.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zeros from any seed, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Split derives an independent child stream from this one. The parent
// advances; the child is seeded from the parent's output so that the two
// sequences do not overlap in practice.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd3833e804f4c574b)
}

// Sequence is a deterministic family of sub-streams keyed by index: the
// splitting contract parallel shards need. At(i) depends only on the
// Sequence and i — not on how many times or in what order At has been
// called — so shards can be claimed by any number of workers in any
// order and still draw identical randomness.
type Sequence struct {
	base uint64
}

// SplitSeq consumes exactly one draw from the parent and returns the
// derived Sequence. Two SplitSeq calls on the same parent yield
// unrelated families; the parent advances by one Uint64 regardless of
// how many sub-streams are later materialized.
func (s *Source) SplitSeq() Sequence {
	return Sequence{base: s.Uint64() ^ 0x9fb21c651e98df25}
}

// NewSequence builds a Sequence directly from a seed, for call sites
// that have no parent stream.
func NewSequence(seed uint64) Sequence {
	var x = seed
	return Sequence{base: splitMix64(&x) ^ 0x9fb21c651e98df25}
}

// At returns sub-stream i of the family. Calls are idempotent and
// order-independent: At(i) always returns a generator in the same
// state, and distinct indices give statistically independent streams.
func (q Sequence) At(i uint64) *Source {
	s := new(Source)
	s.seedAt(q.base, i)
	return s
}

// seedAt seeds sub-stream i of the family with base. Like seed, it is
// out of line so At inlines and its Source can stay on the stack.
//
//go:noinline
func (s *Source) seedAt(base, i uint64) {
	// Mix the index through SplitMix64 before handing it to seed (which
	// SplitMix64-expands again) so consecutive indices land far apart.
	x := base + (i+1)*0x9e3779b97f4a7c15
	s.seed(splitMix64(&x))
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be overkill here; modulo
	// bias is negligible for the small n used by the simulator, but use
	// rejection sampling anyway for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Bit returns a fair random bit as a byte (0 or 1).
func (s *Source) Bit() byte { return byte(s.Uint64() & 1) }

// Bits fills dst with fair random bits (each byte 0 or 1) and returns it.
func (s *Source) Bits(dst []byte) []byte {
	for i := range dst {
		dst[i] = s.Bit()
	}
	return dst
}

// Bytes fills dst with uniform random bytes and returns it.
func (s *Source) Bytes(dst []byte) []byte {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8; j++ {
			dst[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(dst) {
		v := s.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
	return dst
}

// Norm returns a standard Gaussian sample (mean 0, variance 1) using the
// Marsaglia polar method with a cached spare.
func (s *Source) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			f := math.Sqrt(-2 * math.Log(q) / q)
			s.spare = v * f
			s.hasSpare = true
			return u * f
		}
	}
}

// NormScaled returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) NormScaled(mean, sigma float64) float64 {
	return mean + sigma*s.Norm()
}

// ComplexNorm returns a circularly-symmetric complex Gaussian sample with
// total variance 1 (each of I and Q has variance 1/2). Scale by σ to get
// complex AWGN of power σ².
func (s *Source) ComplexNorm() complex128 {
	const invSqrt2 = 0.7071067811865476
	return complex(s.Norm()*invSqrt2, s.Norm()*invSqrt2)
}

// AWGN adds complex white Gaussian noise of the given power (variance per
// sample) to x in place and returns it.
//
// The result is bit-identical to adding complex(σ,0)·ComplexNorm() to
// each sample in turn, and the Source ends in the same state, pending
// Norm spare included.
func (s *Source) AWGN(x []complex128, noisePower float64) []complex128 {
	awgn(s, x, math.Sqrt(noisePower))
	return x
}

// awgn is the batched Marsaglia-polar kernel behind AWGN. Per chunk of
// up to 32 samples it runs three passes, so the unpredictable rejection
// branch, the logarithms and the square roots each get a tight loop:
//
//  1. draw polar pairs (u, v, q) with the generator state held in
//     locals, storing every attempt and advancing the slot only on
//     acceptance, so the uniforms are consumed in the scalar order;
//  2. t = −2·ln(q)/q;
//  3. f = √t and x += σ·(u·f·(1/√2), v·f·(1/√2)).
//
// Every expression keeps the textual form it has in Norm and
// ComplexNorm, so each rounding step matches the scalar path. A pending
// spare shifts the pairing by one: sample k takes (v·f of pair k−1,
// u·f of pair k), the spare standing in for pair −1, and the last v·f
// is left pending.
func awgn(s *Source, x []complex128, sigma float64) {
	const invSqrt2 = 0.7071067811865476
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	spare, carry := s.spare, s.hasSpare
	var us, vs, ts [32]float64
	for rest := x; len(rest) > 0; {
		m := min(len(rest), len(us))
		for n := 0; n < m; {
			// Two Float64 draws, as in Uint64 and Float64.
			r := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			u := 2*(float64(r>>11)/(1<<53)) - 1
			r = rotl(s1*5, 7) * 9
			t = s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			v := 2*(float64(r>>11)/(1<<53)) - 1
			q := u*u + v*v
			us[n], vs[n], ts[n] = u, v, q
			// Accept iff 0 < q < 1 (q is never negative), written so
			// the compiler emits conditional moves, not branches.
			ok := 0
			if q < 1 {
				ok = 1
			}
			if q == 0 {
				ok = 0
			}
			n += ok
		}
		for k := 0; k < m; k++ {
			ts[k] = -2 * math.Log(ts[k]) / ts[k]
		}
		if carry {
			for k := 0; k < m; k++ {
				f := math.Sqrt(ts[k])
				rest[k] += complex(sigma, 0) * complex(spare*invSqrt2, us[k]*f*invSqrt2)
				spare = vs[k] * f
			}
		} else {
			for k := 0; k < m; k++ {
				f := math.Sqrt(ts[k])
				rest[k] += complex(sigma, 0) * complex(us[k]*f*invSqrt2, vs[k]*f*invSqrt2)
			}
		}
		rest = rest[m:]
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
	s.spare = spare
}

// Exp returns an exponentially distributed sample with the given mean.
// Used by the MAC simulator for random backoff and arrival processes.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Shuffle performs a Fisher–Yates shuffle of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
