package phy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
)

// matchedFilterRef is MatchedFilterWS's direct loop as it was before it
// divided component-wise: the runtime's complex division by complex(pe,
// 0). It also returns each symbol's accumulator.
func matchedFilterRef(w Waveform, samples []complex128, startSample, nSymbols int) (out, accs []complex128) {
	var pe float64
	for _, v := range w.Pulse {
		pe += v * v
	}
	for k := 0; k < nSymbols; k++ {
		base := startSample + k*w.SPS - (len(w.Pulse)-1)/2
		var acc complex128
		for i, p := range w.Pulse {
			j := base + i
			if j < 0 || j >= len(samples) {
				continue
			}
			acc += samples[j] * complex(p, 0)
		}
		accs = append(accs, acc)
		out = append(out, acc/complex(pe, 0))
	}
	return out, accs
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// TestMatchedFilterWSMatchesComplexDivision: dividing each part by the
// pulse energy equals the runtime's complex division by complex(pe, 0)
// bit for bit whenever the accumulator's two parts are both finite or
// both non-finite (NaN matching NaN). The accumulator starts at +0, so
// it is never −0 and no signed-zero case arises. Where exactly one part
// is non-finite — an overflowed or NaN sum — the runtime's division
// multiplies that part by 0 and turns the finite part into NaN; the
// component-wise division keeps the finite quotient, which this test
// pins instead.
func TestMatchedFilterWSMatchesComplexDivision(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 5e-324, -1e-310, 1e308, -1e308, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewSource(11))
	value := func() float64 {
		if r.Intn(6) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.NormFloat64()
	}
	rect, err := NewRectWaveform(4)
	if err != nil {
		t.Fatal(err)
	}
	waves := []Waveform{rect, {SPS: 2, Pulse: []float64{0.5, -1, 2}}, {SPS: 3, Pulse: []float64{1e-160, 3e-161}},
		{SPS: 8, Pulse: []float64{1, negZero, 1, 0, 1, 1, 1, 1, 2}}}
	ws := dsp.NewWorkspace()
	var mixed, finiteAccs int
	for wi, w := range waves {
		for trial := 0; trial < 200; trial++ {
			samples := make([]complex128, 64)
			for i := range samples {
				samples[i] = complex(value(), value())
			}
			start, n := r.Intn(8), 1+r.Intn(20) // the pulse overhangs both ends
			got, err := w.MatchedFilterWS(ws, samples, start, n)
			if err != nil {
				t.Fatal(err)
			}
			want, accs := matchedFilterRef(w, samples, start, n)
			var pe float64
			for _, v := range w.Pulse {
				pe += v * v
			}
			for k, acc := range accs {
				switch {
				case finite(real(acc)) != finite(imag(acc)):
					mixed++
					want[k] = complex(real(acc)/pe, imag(acc)/pe)
				case finite(real(acc)):
					finiteAccs++
				}
				if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
					t.Fatalf("waveform %d: symbol %d (acc %v) = %v, want %v", wi, k, acc, got[k], want[k])
				}
			}
			ws.Reset()
		}
	}
	if mixed == 0 || finiteAccs == 0 {
		t.Errorf("%d accumulators with one non-finite part, %d finite: a case went untested", mixed, finiteAccs)
	}
}
