package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/dsp"
)

// Preamble13 is the length-13 Barker code used to detect and align tag
// bursts; Barker codes have the flattest possible autocorrelation
// sidelobes, making the correlation peak unambiguous.
var Preamble13 = []int{+1, +1, +1, +1, +1, -1, -1, +1, +1, -1, +1, -1, +1}

// PreambleSymbols returns the Barker preamble as OOK symbols: +1 chips
// map to the reflecting state (amplitude 1), −1 chips to the absorbed
// state (amplitude leakage).
func PreambleSymbols(leakage float64) []complex128 {
	return AppendPreambleSymbols(nil, leakage)
}

// AppendPreambleSymbols appends the Barker preamble symbols to dst (see
// PreambleSymbols) — the allocation-free form for callers with a
// reusable buffer.
func AppendPreambleSymbols(dst []complex128, leakage float64) []complex128 {
	for _, c := range Preamble13 {
		if c > 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, complex(leakage, 0))
		}
	}
	return dst
}

// Waveform turns symbols into (and back out of) sampled baseband.
type Waveform struct {
	// SPS is samples per symbol (≥ 1).
	SPS int
	// Pulse is the shaping pulse; RectPulse(SPS) reproduces the tag's
	// hard switching, raised-cosine shapes bound the occupied bandwidth.
	Pulse []float64
}

// NewRectWaveform returns the paper-faithful hard-switched waveform.
func NewRectWaveform(sps int) (Waveform, error) {
	if sps < 1 {
		return Waveform{}, fmt.Errorf("phy: sps must be ≥ 1, got %d", sps)
	}
	return Waveform{SPS: sps, Pulse: dsp.RectPulse(sps)}, nil
}

// Synthesize renders symbols to samples (len(symbols)·SPS samples).
func (w Waveform) Synthesize(symbols []complex128) []complex128 {
	return dsp.ShapeSymbols(symbols, w.Pulse, w.SPS)
}

// SynthesizeWS is Synthesize with workspace-backed scratch and output
// (valid until the next ws.Reset; nil ws allocates).
func (w Waveform) SynthesizeWS(ws *dsp.Workspace, symbols []complex128) []complex128 {
	return dsp.ShapeSymbolsWS(ws, symbols, w.Pulse, w.SPS)
}

// MatchedFilter correlates the received samples against the pulse and
// returns one decision statistic per symbol period, sampling at the
// center of each period starting from startSample. Decision values are
// normalized by the pulse energy so symbol amplitudes are preserved.
func (w Waveform) MatchedFilter(samples []complex128, startSample, nSymbols int) ([]complex128, error) {
	return w.MatchedFilterWS(nil, samples, startSample, nSymbols)
}

// matchedFilterDirectMax is the longest pulse still correlated by the
// direct per-symbol loop; beyond it MatchedFilterWS runs one overlap-save
// FFT correlation over the whole burst and samples the decision points
// from it. The default rect pulse (len = SPS) stays direct, keeping the
// burst hot path's numerics bit-identical.
const matchedFilterDirectMax = 32

// MatchedFilterWS is MatchedFilter with the decision buffer checked out
// of ws (valid until the next ws.Reset; nil ws allocates). Long shaping
// pulses (raised-cosine with many samples per symbol) take the
// frequency-domain path.
func (w Waveform) MatchedFilterWS(ws *dsp.Workspace, samples []complex128, startSample, nSymbols int) ([]complex128, error) {
	if startSample < 0 {
		return nil, fmt.Errorf("phy: negative start sample %d", startSample)
	}
	var pe float64
	for _, v := range w.Pulse {
		pe += v * v
	}
	if pe == 0 {
		return nil, fmt.Errorf("phy: zero-energy pulse")
	}
	if l := len(w.Pulse); l > matchedFilterDirectMax && nSymbols > 0 {
		// Correlation as convolution with the reversed pulse: full-conv
		// position start + k·SPS + (l−1) − (l−1)/2 is symbol k's decision
		// point, and the convolution's implicit zero padding reproduces
		// the direct loop's skip of out-of-range taps.
		h := ws.Complex(l)
		for i, p := range w.Pulse {
			h[l-1-i] = complex(p, 0)
		}
		full := dsp.ConvOSWS(ws, samples, h)
		out := ws.Complex(nSymbols)
		off := (l - 1) - (l-1)/2
		ipe := complex(1/pe, 0)
		for k := 0; k < nSymbols; k++ {
			if u := startSample + k*w.SPS + off; u < len(full) {
				out[k] = full[u] * ipe
			}
		}
		return out, nil
	}
	out := ws.Complex(nSymbols)[:0]
	for k := 0; k < nSymbols; k++ {
		// startSample + k·SPS is the *center* of symbol k (the
		// ShapeSymbols contract); pulse sample i sits i − (len−1)/2
		// samples from the center.
		base := startSample + k*w.SPS - (len(w.Pulse)-1)/2
		var acc complex128
		for i, p := range w.Pulse {
			j := base + i
			if j < 0 || j >= len(samples) {
				continue
			}
			acc += samples[j] * complex(p, 0)
		}
		// Not the runtime's complex division, which differs only when
		// exactly one part of acc is non-finite (DESIGN.md §9.3).
		out = append(out, complex(real(acc)/pe, imag(acc)/pe))
	}
	return out, nil
}

// DetectBurst finds a Barker-preambled OOK burst in samples: it computes
// the envelope, correlates with the preamble's ±1 chip pattern at symbol
// rate, and returns the sample index of the first payload symbol (i.e.
// just after the preamble) plus the correlation peak metric.
func (w Waveform) DetectBurst(samples []complex128, leakage float64) (payloadStart int, metric float64, err error) {
	return w.DetectBurstWS(nil, samples, leakage)
}

// Acquisition constants (see DetectBurstWS).
const (
	// lockFraction of the ideal preamble correlation at the capture's
	// amplitude span locks the forward search.
	lockFraction = 0.4
	// nearMax: a lag within this fraction of the largest correlation
	// searched ties with it, and the earliest tie wins.
	nearMax = 0.95
	// refineSymbols from the first crossing are searched for the peak.
	refineSymbols = 2
	// windowSymbols of lags are searched forward before the
	// whole-capture fallback.
	windowSymbols = 32
)

// DetectBurstWS is DetectBurst with the envelope, template and
// correlation buffers checked out of ws (nil ws allocates).
//
// The search runs forward from lag 0, so its cost is set by where the
// preamble sits rather than by the capture's length:
//
//  1. One pass over the capture finds the smallest and largest sample
//     power. An ideal burst spanning that amplitude range correlates
//     with the zero-mean template to Σ(positive taps)·(√pmax − √pmin);
//     40% of that is the lock threshold.
//  2. The moving-average envelope and its template correlation are
//     computed over the first 32 symbols of lags only (both are causal,
//     so these values equal the whole capture's, bit for bit), and the
//     search stops at the first lag that reaches the threshold.
//  3. The lock is the largest correlation within two symbols of that
//     first crossing (its first lag on a tie), and metric is its value.
//  4. Every lag is searched, and the earliest lag within 5% of the
//     global maximum wins with that maximum as metric, when no lag in the
//     window reaches the threshold (no amplitude span, a late preamble,
//     or one cut off by the capture's end), when step 3's two symbols
//     run past the window, or when an earlier lag comes within 5% of the
//     lock's peak, since this whole-capture rule's pick then depends on
//     the global maximum. Otherwise, wherever the whole-capture rule
//     picks a lag inside step 3's window, step 3 picks the same lag.
//
// A payload that contains a run matching the preamble comes after the
// preamble, so the forward search locks on the preamble even where the
// run correlates higher.
func (w Waveform) DetectBurstWS(ws *dsp.Workspace, samples []complex128, leakage float64) (payloadStart int, metric float64, err error) {
	if w.SPS < 1 {
		return 0, 0, fmt.Errorf("phy: sps must be ≥ 1, got %d", w.SPS)
	}
	n := len(Preamble13)
	need := (n + 1) * w.SPS
	if len(samples) < need {
		return 0, 0, fmt.Errorf("phy: burst shorter (%d) than preamble (%d samples)", len(samples), need)
	}
	// Zero-mean chip template: +1 → high, −1 → low; remove DC so the
	// correlation ignores the absolute signal level. The moving-average
	// envelope peaks at the *end* of each symbol period, so the template
	// is upsampled to sample rate (one nonzero chip every SPS) and every
	// sample offset is a candidate lag.
	var mean float64
	for _, c := range Preamble13 {
		mean += chipLevel(c, leakage)
	}
	mean /= float64(n)
	tmpl := ws.Float((n-1)*w.SPS + 1)
	var posSum float64
	for k, c := range Preamble13 {
		v := chipLevel(c, leakage) - mean
		tmpl[k*w.SPS] = v
		if v > 0 {
			posSum += v
		}
	}
	pmin, pmax := math.Inf(1), 0.0
	for _, v := range samples {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p < pmin {
			pmin = p
		}
		if p > pmax {
			pmax = p
		}
	}
	thr := lockFraction * posSum * (math.Sqrt(pmax) - math.Sqrt(pmin))

	lags := len(samples) - n*w.SPS + 1
	var corr []float64
	bestOfs, peakOfs := 0, -1
	// !(thr > 0) also routes NaN (non-finite samples) to the full search.
	if thr > 0 {
		win := min(lags, windowSymbols*w.SPS)
		corr = w.envelopeCorr(ws, samples, tmpl, win)
		lock := -1
		for k, v := range corr {
			if v >= thr {
				lock = k
				break
			}
		}
		hi := min(lags, lock+refineSymbols*w.SPS+1)
		if lock >= 0 && hi <= win {
			peakOfs, metric = peak(corr[lock:hi])
			peakOfs += lock
			bestOfs = earliestNear(corr[:hi], metric)
		}
	}
	if bestOfs != peakOfs {
		// No lock in the window, a refinement that runs past it, or an
		// earlier lag within nearMax of the lock's peak: which lag the
		// whole-capture rule picks then depends on lags outside the
		// window, so search every lag.
		if len(corr) < lags {
			corr = w.envelopeCorr(ws, samples, tmpl, lags)
		}
		_, metric = peak(corr)
		bestOfs = earliestNear(corr, metric)
	}
	// The causal moving average fully covers a symbol at the symbol's
	// *last* support sample, which for a center-aligned rect pulse sits
	// SPS−1−(SPS−1)/2 samples after the symbol center. Back that off to
	// recover the preamble's symbol-0 center, then step over the preamble
	// to the first payload symbol's center.
	backoff := w.SPS - 1 - (w.SPS-1)/2
	center0 := bestOfs - backoff
	if center0 < 0 {
		center0 = 0
	}
	return center0 + n*w.SPS, metric, nil
}

// chipLevel is the envelope level of one Barker chip: +1 chips reflect
// (1), −1 chips absorb (leakage).
func chipLevel(c int, leakage float64) float64 {
	if c > 0 {
		return 1
	}
	return leakage
}

// envelopeCorr correlates the moving-average envelope of samples with
// tmpl at lags 0…lags−1, reading only the samples those lags reach.
func (w Waveform) envelopeCorr(ws *dsp.Workspace, samples []complex128, tmpl []float64, lags int) []float64 {
	m := lags - 1 + len(tmpl)
	avg := dsp.MovingAverageInto(ws.Complex(m), samples[:m], w.SPS)
	env := dsp.MagnitudesInto(ws.Float(m), avg)
	return dsp.XCorrRealWS(ws, env, tmpl)
}

// peak returns the first index of corr's largest value and that value
// (−1 and −Inf if corr is empty).
func peak(corr []float64) (int, float64) {
	at, best := -1, math.Inf(-1)
	for k, v := range corr {
		if v > best {
			at, best = k, v
		}
	}
	return at, best
}

// earliestNear returns the first index whose value is within nearMax of
// best (0 if none). A random payload can contain a 13-symbol run that
// matches the Barker pattern exactly, tying the true preamble's
// correlation; the preamble always comes first.
func earliestNear(corr []float64, best float64) int {
	for k, v := range corr {
		if v >= nearMax*best {
			return k
		}
	}
	return 0
}

// MeasureSNR estimates the SNR of OOK decision statistics by two-cluster
// splitting: symbols above/below the midpoint of the extremes form the
// high and low clusters; SNR = (μ_hi−μ_lo)²·(avg symbol power fraction) /
// (2·σ²). It returns the estimated average-SNR in dB.
func MeasureSNR(decisions []complex128) (float64, error) {
	return MeasureSNRWS(nil, decisions)
}

// MeasureSNRWS is MeasureSNR with the magnitude buffer checked out of ws
// (nil ws allocates).
func MeasureSNRWS(ws *dsp.Workspace, decisions []complex128) (float64, error) {
	return DecisionStatsWS(ws, decisions).SNRdB()
}

// DecisionStats is one pass of two-cluster statistics over OOK decision
// magnitudes: the midpoint of the extremes, and the magnitude sum and
// count of each side of it. The adaptive OOK slicer and the SNR
// estimate both start from it.
type DecisionStats struct {
	Mags       []float64 // |decision|, valid until the workspace's next Reset
	Mid        float64   // mean of the extremes (NaN if a magnitude is): the split
	SumH, SumL float64   // sums of the magnitudes ≥ Mid and < Mid, in decision order
	NH, NL     int       // their counts
}

// DecisionStatsWS computes the DecisionStats of decisions with the
// magnitude buffer checked out of ws (nil ws allocates). Empty
// decisions give zero stats.
func DecisionStatsWS(ws *dsp.Workspace, decisions []complex128) DecisionStats {
	var s DecisionStats
	if len(decisions) == 0 {
		return s
	}
	s.Mags = dsp.MagnitudesInto(ws.Float(len(decisions)), decisions)
	// Plain comparisons, not math.Min/Max's out-of-line calls: m != m
	// keeps a NaN extreme, and so Mid, NaN. Magnitudes are never −0 or
	// −Inf, the cases where the two would differ otherwise.
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
	// Branch-free split: each magnitude goes to both sums, masked to +0
	// on the side it does not belong to. Adding +0 leaves a sum that is
	// not −0 unchanged, and both sums start at +0 and only ever add
	// magnitudes; a NaN (m ≥ Mid false) lands on the low side, as the
	// branch sent it (DESIGN.md §9.4).
	var sumH, sumL float64
	var nH int
	for _, m := range s.Mags {
		h := highMask(m, s.Mid)
		mb := math.Float64bits(m)
		sumH += math.Float64frombits(mb & h)
		sumL += math.Float64frombits(mb &^ h)
		nH += int(h & 1)
	}
	s.SumH, s.SumL, s.NH, s.NL = sumH, sumL, nH, len(s.Mags)-nH
	return s
}

// highMask is all ones if m ≥ mid and zero otherwise (so zero when
// either is NaN). The compiler turns the if into a flag set, not a
// branch.
func highMask(m, mid float64) uint64 {
	var h uint64
	if m >= mid {
		h = 1
	}
	return -h
}

// SNRdB is MeasureSNR's estimate from s.
func (s DecisionStats) SNRdB() (float64, error) {
	if len(s.Mags) < 4 {
		return 0, fmt.Errorf("phy: need ≥ 4 decisions to estimate SNR")
	}
	if s.NH == 0 || s.NL == 0 {
		return 0, fmt.Errorf("phy: decisions are unimodal; cannot split clusters")
	}
	muH := s.SumH / float64(s.NH)
	muL := s.SumL / float64(s.NL)
	// Estimate noise from the high cluster only: there the magnitude of
	// A+n is ≈ A + Re(n), so the magnitude variance equals the
	// per-quadrature noise power N/2. (The low/empty cluster is Rayleigh
	// and would bias the estimate.)
	//
	// The deviation of a low-cluster (or NaN) magnitude is masked to +0
	// before it is squared: (+0)·(+0) adds +0, and a fused multiply-add
	// of it is exact too, so varH matches the branch that skipped it.
	var varH float64
	for _, m := range s.Mags {
		d := math.Float64frombits(math.Float64bits(m-muH) & highMask(m, s.Mid))
		varH += d * d
	}
	varH /= float64(s.NH)
	if varH <= 0 {
		return math.Inf(1), nil
	}
	// Average symbol power for the (muH, muL) constellation with equal
	// priors over total noise power N = 2·varH.
	avgP := (muH*muH + muL*muL) / 2
	snr := avgP / (2 * varH)
	return 10 * math.Log10(snr), nil
}

// PhaseAlign rotates decisions so the strongest cluster lies on the
// positive real axis — a cheap carrier-phase recovery for coherent
// detection of backscatter bursts.
func PhaseAlign(decisions []complex128) []complex128 {
	var acc complex128
	for _, d := range decisions {
		acc += d * complex(cmplx.Abs(d), 0)
	}
	if acc == 0 {
		return decisions
	}
	rot := cmplx.Rect(1, -cmplx.Phase(acc))
	out := make([]complex128, len(decisions))
	for i, d := range decisions {
		out[i] = d * rot
	}
	return out
}
