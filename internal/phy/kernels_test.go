package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/rng"
)

// The references below are the burst kernels as they were before they
// stopped branching on data: each picks its addend or bit with an if.

func ookModulateRef(m OOK, dst []complex128, bits []byte) ([]complex128, error) {
	for _, b := range bits {
		switch b {
		case 0:
			dst = append(dst, 1)
		case 1:
			dst = append(dst, complex(m.Leakage, 0))
		default:
			return nil, fmt.Errorf("phy: bit value %d (want 0 or 1)", b)
		}
	}
	return dst, nil
}

func ookDemodulateRef(m OOK, dst []byte, syms []complex128) []byte {
	thr := (1 + m.Leakage) / 2
	for _, s := range syms {
		if cmplx.Abs(s) >= thr {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}

func decisionStatsRef(decisions []complex128) DecisionStats {
	var s DecisionStats
	if len(decisions) == 0 {
		return s
	}
	s.Mags = dsp.Magnitudes(decisions)
	lo, hi := s.Mags[0], s.Mags[0]
	for _, m := range s.Mags {
		if m < lo || m != m {
			lo = m
		}
		if m > hi || m != m {
			hi = m
		}
	}
	s.Mid = (lo + hi) / 2
	for _, m := range s.Mags {
		if m >= s.Mid {
			s.SumH += m
			s.NH++
		} else {
			s.SumL += m
			s.NL++
		}
	}
	return s
}

func snrDBRef(s DecisionStats) (float64, error) {
	if len(s.Mags) < 4 {
		return 0, fmt.Errorf("phy: need ≥ 4 decisions to estimate SNR")
	}
	if s.NH == 0 || s.NL == 0 {
		return 0, fmt.Errorf("phy: decisions are unimodal; cannot split clusters")
	}
	muH := s.SumH / float64(s.NH)
	muL := s.SumL / float64(s.NL)
	var varH float64
	for _, m := range s.Mags {
		if m >= s.Mid {
			varH += (m - muH) * (m - muH)
		}
	}
	varH /= float64(s.NH)
	if varH <= 0 {
		return math.Inf(1), nil
	}
	avgP := (muH*muH + muL*muL) / 2
	return 10 * math.Log10(avgP/(2*varH)), nil
}

// specialFloats are the values every kernel test mixes in: signed
// zeros, subnormals, huge and non-finite parts.
var specialFloats = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 1e308, -1e308,
	math.Inf(1), math.Inf(-1), math.NaN()}

// kernelValues draws n complex values, about one part in four special.
func kernelValues(r *rand.Rand, n int) []complex128 {
	part := func() float64 {
		if r.Intn(4) == 0 {
			return specialFloats[r.Intn(len(specialFloats))]
		}
		return r.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(part(), part())
	}
	return x
}

func requireSameComplexes(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestOOKModemMatchesReference: the table-select Modulate and the
// negated-comparison Demodulate equal the branching references bit for
// bit, including the error (and nil result) for a bit value of 2, the
// leakage's sign of zero, and NaN, ±Inf, −0 and subnormal symbols.
func TestOOKModemMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, leak := range []float64{0, math.Copysign(0, -1), 5e-324, 0.1, 0.999, math.NaN()} {
		m := OOK{Leakage: leak}
		for n := 0; n <= 64; n++ {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(r.Intn(2))
			}
			prefix := []complex128{complex(3, -1)}
			got, err := m.Modulate(append([]complex128(nil), prefix...), bits)
			want, wantErr := ookModulateRef(m, append([]complex128(nil), prefix...), bits)
			if err != nil || wantErr != nil {
				t.Fatalf("leak %v, %d bits: errors %v, %v", leak, n, err, wantErr)
			}
			requireSameComplexes(t, got, want, fmt.Sprintf("Modulate leak %v, %d bits", leak, n))
			if n > 0 {
				bits[r.Intn(n)] = byte(2 + r.Intn(254))
				got, err = m.Modulate(prefix, bits)
				want, wantErr = ookModulateRef(m, prefix, bits)
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() || got != nil || want != nil {
					t.Fatalf("leak %v, bad bit: (%v, %v), want (%v, %v)", leak, got, err, want, wantErr)
				}
			}
			syms := kernelValues(r, n)
			gotBits := m.Demodulate([]byte{7}, syms)
			if wantBits := ookDemodulateRef(m, []byte{7}, syms); string(gotBits) != string(wantBits) {
				t.Fatalf("Demodulate leak %v, %v: %v, want %v", leak, syms, gotBits, wantBits)
			}
		}
	}
}

// statsTestVectors mixes noisy OOK decision vectors of lengths 0–64,
// vectors with special parts, all-equal vectors, vectors whose
// magnitudes sit exactly on the split, and session-sized bursts.
func statsTestVectors(r *rand.Rand) [][]complex128 {
	var vs [][]complex128
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 8; trial++ {
			d := ookTestDecisions(r, n, 0.1, 0.3)
			if trial%2 == 1 {
				special := kernelValues(r, n)
				for i := range d {
					if r.Intn(3) == 0 {
						d[i] = special[i]
					}
				}
			}
			vs = append(vs, d)
		}
		same := make([]complex128, n)
		for i := range same {
			same[i] = 0.5
		}
		// Levels 1, 2 and 3: the split (1+3)/2 lands exactly on 2.
		onMid := make([]complex128, n)
		for i := range onMid {
			onMid[i] = complex(float64(1+i%3), 0)
		}
		vs = append(vs, same, onMid)
	}
	for _, size := range []int{64, 1024} {
		vs = append(vs, ookTestDecisions(r, sessionSymbols(size), 0.1, 0.05))
	}
	return vs
}

// ookTestDecisions draws n OOK decisions, levels 1 and leak plus complex
// Gaussian noise of standard deviation sigma per part.
func ookTestDecisions(r *rand.Rand, n int, leak, sigma float64) []complex128 {
	d := make([]complex128, n)
	for i := range d {
		a := leak
		if r.Intn(2) == 0 {
			a = 1
		}
		d[i] = complex(a+sigma*r.NormFloat64(), sigma*r.NormFloat64())
	}
	return d
}

// sessionSymbols is the number of payload-side decisions (header,
// payload and CRC at one bit per symbol) of a session burst.
func sessionSymbols(payloadBytes int) int {
	return 8 * (frame.HeaderLen + payloadBytes + frame.CRCLen)
}

// TestDecisionStatsMatchesReference: the masked split pass and the
// masked high-cluster variance equal the branching references bit for
// bit — every sum, count, the split and the SNR estimate or its error.
func TestDecisionStatsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ws := dsp.NewWorkspace()
	for _, d := range statsTestVectors(r) {
		ws.Reset()
		got, want := DecisionStatsWS(ws, d), decisionStatsRef(d)
		if !sameBits(got.Mid, want.Mid) || !sameBits(got.SumH, want.SumH) || !sameBits(got.SumL, want.SumL) ||
			got.NH != want.NH || got.NL != want.NL || len(got.Mags) != len(want.Mags) {
			t.Fatalf("%d decisions: stats %+v, want %+v", len(d), got, want)
		}
		snr, err := got.SNRdB()
		wantSNR, wantErr := snrDBRef(want)
		if (err == nil) != (wantErr == nil) || !sameBits(snr, wantSNR) {
			t.Fatalf("%d decisions: SNRdB %v (%v), want %v (%v)", len(d), snr, err, wantSNR, wantErr)
		}
	}
}

// sessionCapture is a capture of one session burst at 20 dB SNR: 16
// symbols of lead, the preamble, header, payload and CRC, and a
// 24-symbol tail, returned with the payload-side symbol count.
func sessionCapture(w Waveform, payloadBytes int) (capture []complex128, payloadSyms int) {
	src := rng.New(uint64(payloadBytes))
	payloadSyms = sessionSymbols(payloadBytes)
	bits := src.Bits(make([]byte, payloadSyms))
	syms, err := OOK{Leakage: 0.1}.Modulate(PreambleSymbols(0.1), bits)
	if err != nil {
		panic(err)
	}
	tx := w.Synthesize(syms)
	capture = make([]complex128, len(tx)+40*w.SPS)
	copy(capture[16*w.SPS:], tx)
	src.AWGN(capture, 0.01)
	return capture, payloadSyms
}

// TestBurstKernelAllocs: on a warmed workspace Modulate into a buffer
// with room, MatchedFilterWS and the decision statistics allocate
// nothing (TestDetectBurstSteadyStateAllocs covers DetectBurstWS).
func TestBurstKernelAllocs(t *testing.T) {
	w, _ := NewRectWaveform(4)
	capture, nsym := sessionCapture(w, 64)
	bits := make([]byte, nsym)
	syms := make([]complex128, 0, nsym)
	ws := dsp.NewWorkspace()
	off, _, err := w.DetectBurstWS(ws, capture, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.MatchedFilterWS(ws, capture, off, nsym)
	if err != nil {
		t.Fatal(err)
	}
	dec = append([]complex128(nil), dec...)
	ws.Reset()
	for name, f := range map[string]func(){
		"OOK.Modulate":    func() { _, _ = OOK{Leakage: 0.1}.Modulate(syms, bits) },
		"MatchedFilterWS": func() { _, _ = w.MatchedFilterWS(ws, capture, off, nsym) },
		"DecisionStats":   func() { _, _ = DecisionStatsWS(ws, dec).SNRdB() },
	} {
		f()
		ws.Reset()
		if n := testing.AllocsPerRun(20, func() { f(); ws.Reset() }); n != 0 {
			t.Errorf("warmed %s: %v allocs/run, want 0", name, n)
		}
	}
}

// The burst-kernel benchmarks run at the session's 64 B and 1024 B
// frame sizes (576 and 8 256 payload-side symbols) on a warmed
// workspace. Those whose cost depends on the data cycle through
// benchInputs different bursts, as a session does: a branch predictor
// learns one 576-symbol burst replayed every iteration, which hides
// exactly the mispredictions a real stream of frames pays for.
var benchSizes = []int{64, 1024}

const benchInputs = 16

func BenchmarkOOKModulate(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			src := rng.New(uint64(size))
			bits := make([][]byte, benchInputs)
			for k := range bits {
				bits[k] = src.Bits(make([]byte, sessionSymbols(size)))
			}
			syms := make([]complex128, 0, sessionSymbols(size))
			m := OOK{Leakage: 0.1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Modulate(syms, bits[i%benchInputs]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMatchedFilterWS(b *testing.B) {
	w, _ := NewRectWaveform(4)
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			capture, nsym := sessionCapture(w, size)
			off := (16 + len(Preamble13)) * w.SPS
			ws := dsp.NewWorkspace()
			w.MatchedFilterWS(ws, capture, off, nsym) // warm the workspace
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.MatchedFilterWS(ws, capture, off, nsym); err != nil {
					b.Fatal(err)
				}
				ws.Reset()
			}
		})
	}
}

func BenchmarkDetectBurstWS(b *testing.B) {
	w, _ := NewRectWaveform(4)
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			capture, _ := sessionCapture(w, size)
			ws := dsp.NewWorkspace()
			w.DetectBurstWS(ws, capture, 0.1) // warm the workspace
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.DetectBurstWS(ws, capture, 0.1); err != nil {
					b.Fatal(err)
				}
				ws.Reset()
			}
		})
	}
}

// BenchmarkDecisionStats runs the statistics pass and the SNR estimate
// from it, the decide stage's two loops outside the slicer.
func BenchmarkDecisionStats(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(size)))
			d := make([][]complex128, benchInputs)
			for k := range d {
				d[k] = ookTestDecisions(r, sessionSymbols(size), 0.1, 0.05)
			}
			ws := dsp.NewWorkspace()
			DecisionStatsWS(ws, d[0]) // warm the workspace
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecisionStatsWS(ws, d[i%benchInputs]).SNRdB(); err != nil {
					b.Fatal(err)
				}
				ws.Reset()
			}
		})
	}
}
