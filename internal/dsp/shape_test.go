package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
)

// shapeSymbolsRef is ShapeSymbolsWS as it was before it accumulated each
// pulse in place: impulse-train upsampling, ConvWS against the complex
// pulse, then a copy that drops the pulse's group delay.
func shapeSymbolsRef(ws *Workspace, symbols []complex128, pulse []float64, sps int) []complex128 {
	up := ws.Complex(len(symbols) * sps)
	for i, s := range symbols {
		up[i*sps] = s
	}
	ph := ws.Complex(len(pulse))
	for i, v := range pulse {
		ph[i] = complex(v, 0)
	}
	full := ConvWS(ws, up, ph)
	delay := (len(pulse) - 1) / 2
	out := ws.Complex(len(symbols) * sps)
	for i := range out {
		j := i + delay
		if j < len(full) {
			out[i] = full[j]
		}
	}
	return out
}

// sameBits reports whether a and b are equal bit for bit, any NaN
// matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSameComplex(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// shapeTestSymbols mixes random symbols with +0, the three signed
// zeros (which both shapers skip) and a few non-finite values.
func shapeTestSymbols(r *rand.Rand, n int) []complex128 {
	negZero := math.Copysign(0, -1)
	special := []complex128{0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero),
		1, complex(1e-310, -1e-310), complex(1e300, -1e300), complex(math.Inf(1), 0), complex(math.NaN(), 1)}
	syms := make([]complex128, n)
	for i := range syms {
		if r.Intn(3) == 0 {
			syms[i] = special[r.Intn(len(special))]
		} else {
			syms[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	}
	return syms
}

func shapeTestPulse(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch r.Intn(5) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = math.Copysign(0, -1)
		default:
			p[i] = r.NormFloat64()
		}
	}
	return p
}

// TestShapeSymbolsWSMatchesConvReference: accumulating each nonzero
// symbol's pulse in place adds the same products in the same (symbol)
// order as ConvWS's direct branch over the impulse train, from the same
// +0 start, so the output is identical bit for bit — including signed
// zeros, subnormals and non-finite symbols. Pulses over 64 taps on
// bursts over 64 samples keep ConvWS's overlap-save path, and so its
// arithmetic.
func TestShapeSymbolsWSMatchesConvReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ws, ref := NewWorkspace(), NewWorkspace()
	for sps := 1; sps <= 8; sps++ {
		for taps := 1; taps <= 2*sps+1; taps++ {
			for _, nsym := range []int{0, 1, 2, 7, 40} {
				syms := shapeTestSymbols(r, nsym)
				pulse := shapeTestPulse(r, taps)
				got := ShapeSymbolsWS(ws, syms, pulse, sps)
				want := shapeSymbolsRef(ref, syms, pulse, sps)
				requireSameComplex(t, got, want, fmt.Sprintf("sps %d, %d taps, %d symbols", sps, taps, nsym))
				ws.Reset()
				ref.Reset()
			}
		}
	}
	rc, err := RaisedCosine(0.35, 4, 24)
	if err != nil || len(rc) <= 64 {
		t.Fatalf("%d-tap raised cosine (%v): want over 64 taps", len(rc), err)
	}
	for _, nsym := range []int{3, 16, 17, 200} { // ≤ 64 samples: direct; > 64: overlap-save
		syms := shapeTestSymbols(r, nsym)
		for i, s := range syms {
			if math.IsInf(real(s), 0) || math.IsNaN(real(s)) || math.IsNaN(imag(s)) {
				syms[i] = 1 // a non-finite sample poisons a whole FFT block
			}
		}
		requireSameComplex(t, ShapeSymbolsWS(ws, syms, rc, 4), shapeSymbolsRef(ref, syms, rc, 4),
			fmt.Sprintf("%d-tap raised cosine, %d symbols", len(rc), nsym))
	}
}

// sessionSymbols is an OOK burst of the session's frame size: preamble,
// header, payload and CRC at one symbol per bit, levels 1 and 0.1.
func sessionSymbols(payloadBytes int) []complex128 {
	r := rand.New(rand.NewSource(int64(payloadBytes)))
	syms := make([]complex128, 13+8*(frame.HeaderLen+payloadBytes+frame.CRCLen))
	for i := range syms {
		syms[i] = 0.1
		if r.Intn(2) == 0 {
			syms[i] = 1
		}
	}
	return syms
}

// TestShapeSymbolsAllocs: a warmed workspace shapes a burst with no
// allocation, and the nil-workspace form allocates only its output.
func TestShapeSymbolsAllocs(t *testing.T) {
	syms, pulse := sessionSymbols(64), RectPulse(4)
	ws := NewWorkspace()
	ShapeSymbolsWS(ws, syms, pulse, 4)
	ws.Reset()
	if n := testing.AllocsPerRun(20, func() {
		ShapeSymbolsWS(ws, syms, pulse, 4)
		ws.Reset()
	}); n != 0 {
		t.Errorf("warmed ShapeSymbolsWS: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ShapeSymbols(syms, pulse, 4) }); n != 1 {
		t.Errorf("ShapeSymbols: %v allocs/run, want 1 (the output)", n)
	}
}

// BenchmarkShapeSymbolsWS shapes one session burst (64 B and 1024 B
// payloads) with the 4-sample rect pulse on a warmed workspace.
func BenchmarkShapeSymbolsWS(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			syms, pulse := sessionSymbols(size), RectPulse(4)
			ws := NewWorkspace()
			ShapeSymbolsWS(ws, syms, pulse, 4) // warm the workspace
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ShapeSymbolsWS(ws, syms, pulse, 4)
				ws.Reset()
			}
		})
	}
}
