// Package phytest holds reference implementations that tests compare the
// phy package against. Nothing outside tests imports it.
package phytest

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/phy"
)

// DetectBurstFullSearch is the whole-capture acquisition rule that
// phy.Waveform.DetectBurstWS used before its forward search: correlate
// the moving-average envelope with the zero-mean Barker template at
// every lag, then take the earliest lag within 5% of the global maximum.
// It returns the payload start and that maximum. On a capture where this
// rule locks at the correct offset, DetectBurstWS must return the same
// offset.
func DetectBurstFullSearch(w phy.Waveform, samples []complex128, leakage float64) (payloadStart int, metric float64, err error) {
	n := len(phy.Preamble13)
	need := (n + 1) * w.SPS
	if w.SPS < 1 || len(samples) < need {
		return 0, 0, fmt.Errorf("phytest: burst shorter (%d) than preamble (%d samples)", len(samples), need)
	}
	env := dsp.Magnitudes(dsp.MovingAverage(samples, w.SPS))
	tmpl := make([]float64, n)
	var mean float64
	for i, c := range phy.Preamble13 {
		v := leakage
		if c > 0 {
			v = 1
		}
		tmpl[i] = v
		mean += v
	}
	mean /= float64(n)
	maxOfs := len(samples) - n*w.SPS
	tdense := make([]float64, (n-1)*w.SPS+1)
	for k := range tmpl {
		tdense[k*w.SPS] = tmpl[k] - mean
	}
	corr := dsp.XCorrRealWS(nil, env, tdense)[:maxOfs+1]
	bestV := math.Inf(-1)
	for _, v := range corr {
		if v > bestV {
			bestV = v
		}
	}
	bestOfs := 0
	for ofs, v := range corr {
		if v >= 0.95*bestV {
			bestOfs = ofs
			break
		}
	}
	center0 := bestOfs - (w.SPS - 1 - (w.SPS-1)/2)
	if center0 < 0 {
		center0 = 0
	}
	return center0 + n*w.SPS, bestV, nil
}
