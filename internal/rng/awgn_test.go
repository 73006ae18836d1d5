package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"
)

// awgnRef is the scalar reference the batched AWGN kernel must match bit
// for bit: one ComplexNorm (two Norm calls, spare included) per sample.
func awgnRef(s *Source, x []complex128, noisePower float64) []complex128 {
	sigma := math.Sqrt(noisePower)
	for i := range x {
		x[i] += complex(sigma, 0) * s.ComplexNorm()
	}
	return x
}

// ramp returns n non-zero samples so the "+=" in AWGN is exercised.
func ramp(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i)*0.01, -float64(i)*0.003)
	}
	return x
}

func TestAWGNMatchesScalarReference(t *testing.T) {
	// 32 is the chunk size; 64 is two full chunks.
	for _, n := range []int{0, 1, 8, 9, 32, 33, 63, 64, 65, 2580, 5000} {
		for _, spare := range []bool{false, true} {
			for _, p := range []float64{1e-9, 0.25, 1, 37.5} {
				seed := uint64(n)*131 + uint64(p*1e3)
				ref, got := New(seed), New(seed)
				if spare {
					ref.Norm()
					got.Norm()
				}
				want := awgnRef(ref, ramp(n), p)
				have := got.AWGN(ramp(n), p)
				for i := range want {
					if math.Float64bits(real(have[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(have[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("n=%d spare=%v p=%g: sample %d = %v, want %v", n, spare, p, i, have[i], want[i])
					}
				}
				if ref.hasSpare != got.hasSpare {
					t.Fatalf("n=%d spare=%v p=%g: pending spare %v, want %v", n, spare, p, got.hasSpare, ref.hasSpare)
				}
				if a, b := got.Norm(), ref.Norm(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("n=%d spare=%v p=%g: next Norm %v, want %v", n, spare, p, a, b)
				}
				if a, b := got.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("n=%d spare=%v p=%g: next Uint64 %#x, want %#x", n, spare, p, a, b)
				}
			}
		}
	}
}

// TestAWGNGolden pins the noise stream itself: the digest was computed
// on amd64 with the scalar ComplexNorm loop, so any change to the
// generator, the polar transform or the kernel's arithmetic fails here.
// Other architectures may fuse multiply-adds, which moves last bits.
func TestAWGNGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest is pinned for amd64")
	}
	const want = "b5ef93f950b37fa6cbcf78306d2b6fd4e3a43f53e3054f430aec9b28f041c6ad"
	h := sha256.New()
	var b [8]byte
	put := func(x []complex128) {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	s := New(20201104)
	put(s.AWGN(make([]complex128, 4096), 0.5))
	s.Norm()
	put(s.AWGN(make([]complex128, 777), 2))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("AWGN golden digest %s, want %s", got, want)
	}
}

func BenchmarkAWGN(b *testing.B) {
	for _, n := range []int{1, 16, 2580} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			s := New(1)
			x := make([]complex128, n)
			b.ReportAllocs()
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AWGN(x, 0.5)
			}
		})
	}
}
