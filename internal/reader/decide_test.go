package reader

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
)

// decideOOKRef is DecideOOKWS as it was before the decision statistics
// were shared: its own magnitude pass, math.Min/Max extremes and cluster
// split.
func decideOOKRef(decisions []complex128) (bits []byte, threshold float64, err error) {
	if len(decisions) == 0 {
		return nil, 0, fmt.Errorf("reader: no decisions")
	}
	mags := dsp.Magnitudes(decisions)
	lo, hi := mags[0], mags[0]
	for _, m := range mags {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	mid := (lo + hi) / 2
	var muH, muL float64
	var nH, nL int
	for _, m := range mags {
		if m >= mid {
			muH += m
			nH++
		} else {
			muL += m
			nL++
		}
	}
	if nH == 0 || nL == 0 {
		threshold = mid
	} else {
		threshold = (muH/float64(nH) + muL/float64(nL)) / 2
	}
	bits = make([]byte, len(mags))
	for i, m := range mags {
		if m >= threshold {
			bits[i] = 0
		} else {
			bits[i] = 1
		}
	}
	return bits, threshold, nil
}

// measureSNRRef is phy.MeasureSNRWS as it was before the decision
// statistics were shared.
func measureSNRRef(decisions []complex128) (float64, error) {
	if len(decisions) < 4 {
		return 0, fmt.Errorf("phy: need ≥ 4 decisions to estimate SNR")
	}
	mags := dsp.Magnitudes(decisions)
	lo, hi := mags[0], mags[0]
	for _, m := range mags {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	mid := (lo + hi) / 2
	var muH, muL float64
	var nH, nL int
	for _, m := range mags {
		if m >= mid {
			muH += m
			nH++
		} else {
			muL += m
			nL++
		}
	}
	if nH == 0 || nL == 0 {
		return 0, fmt.Errorf("phy: decisions are unimodal; cannot split clusters")
	}
	muH /= float64(nH)
	muL /= float64(nL)
	var varH float64
	for _, m := range mags {
		if m >= mid {
			varH += (m - muH) * (m - muH)
		}
	}
	varH /= float64(nH)
	if varH <= 0 {
		return math.Inf(1), nil
	}
	avgP := (muH*muH + muL*muL) / 2
	return 10 * math.Log10(avgP/(2*varH)), nil
}

// decideRef is Decide as it was: DecideOOKWS, then MeasureSNRWS.
func decideRef(decisions []complex128) (bits []byte, threshold, snrDB float64, err error) {
	bits, threshold, err = decideOOKRef(decisions)
	if err != nil {
		return nil, 0, 0, err
	}
	if snrDB, err = measureSNRRef(decisions); err != nil {
		snrDB = math.NaN()
	}
	return bits, threshold, snrDB, nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkDecide compares Decide, DecideOOKWS and MeasureSNRWS on decisions
// with the references. The statistics pass replaces math.Min/Max with
// plain comparisons; magnitudes are never −0 or −Inf, so their only
// difference is math.Max letting a +Inf beat a NaN, and a NaN magnitude
// makes the cluster split NaN either way. Every output is therefore
// claimed identical bit for bit (NaN matching NaN).
func checkDecide(t *testing.T, ws *dsp.Workspace, decisions []complex128) {
	t.Helper()
	ws.Reset()
	bits, thr, snr, err := Decide(ws, decisions)
	wantBits, wantThr, wantSNR, wantErr := decideRef(decisions)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%d decisions: Decide error %v, want %v", len(decisions), err, wantErr)
	}
	if string(bits) != string(wantBits) || !sameBits(thr, wantThr) || !sameBits(snr, wantSNR) {
		t.Fatalf("%d decisions: Decide = (thr %v, snr %v), want (thr %v, snr %v) (bits equal: %v)",
			len(decisions), thr, snr, wantThr, wantSNR, string(bits) == string(wantBits))
	}
	ws.Reset()
	bits, thr, err = DecideOOKWS(ws, decisions)
	wantBits, wantThr, wantErr = decideOOKRef(decisions)
	if (err == nil) != (wantErr == nil) || string(bits) != string(wantBits) || !sameBits(thr, wantThr) {
		t.Fatalf("%d decisions: DecideOOKWS threshold %v (%v), want %v (%v)", len(decisions), thr, err, wantThr, wantErr)
	}
	ws.Reset()
	snr, err = phy.MeasureSNRWS(ws, decisions)
	wantSNR, wantErr = measureSNRRef(decisions)
	if (err == nil) != (wantErr == nil) || !sameBits(snr, wantSNR) {
		t.Fatalf("%d decisions: MeasureSNRWS %v (%v), want %v (%v)", len(decisions), snr, err, wantSNR, wantErr)
	}
}

// ookDecisions draws n OOK decision statistics: levels 1 and leak with
// complex Gaussian noise of standard deviation sigma per part.
func ookDecisions(r *rand.Rand, n int, leak, sigma float64) []complex128 {
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

// TestDecideMatchesReference runs the one-pass Decide, DecideOOKWS and
// MeasureSNRWS against the two-pass references on noisy OOK bursts,
// degenerate (constant, tiny) vectors and vectors holding NaN, ±Inf,
// −0, subnormal and huge parts.
func TestDecideMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ws := dsp.NewWorkspace()
	negZero := math.Copysign(0, -1)
	special := []complex128{0, complex(negZero, negZero), complex(5e-324, 0), complex(1e308, 1e308),
		complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 0), complex(1, math.NaN())}
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 50; trial++ {
			d := ookDecisions(r, n, 0.1, 0.3)
			for i := range d {
				if r.Intn(3) == 0 {
					d[i] = special[r.Intn(len(special))]
				}
			}
			checkDecide(t, ws, d)
		}
	}
	for _, n := range []int{576, 8256} { // 64 B and 1024 B session bursts
		for _, sigma := range []float64{0, 0.02, 0.2, 1} {
			checkDecide(t, ws, ookDecisions(r, n, 0.1, sigma))
		}
		d := ookDecisions(r, n, 0.1, 0.05)
		for _, s := range special {
			d[r.Intn(n)] = s
			checkDecide(t, ws, d)
		}
	}
	constant := make([]complex128, 10)
	for i := range constant {
		constant[i] = 0.5
	}
	checkDecide(t, ws, constant)
}

// decisionsFromBytes reads up to 4096 decisions, 16 little-endian bytes
// each (real, then imaginary part), from data.
func decisionsFromBytes(data []byte) []complex128 {
	n := min(len(data)/16, 4096)
	d := make([]complex128, n)
	for i := range d {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		d[i] = complex(re, im)
	}
	return d
}

// FuzzDecide: on arbitrary decision vectors Decide, DecideOOKWS and
// MeasureSNRWS never panic and equal the two-pass references bit for
// bit. The seed corpus in testdata/fuzz/FuzzDecide covers lengths 0–3,
// NaN, ±Inf and −0, magnitudes equal to the split and to the threshold,
// NaN beside the extremes, and all-equal vectors.
func FuzzDecide(f *testing.F) {
	ws := dsp.NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecide(t, ws, decisionsFromBytes(data))
	})
}

// TestDecideAllocs: Decide on a warmed workspace allocates nothing.
func TestDecideAllocs(t *testing.T) {
	d := ookDecisions(rand.New(rand.NewSource(1)), 576, 0.1, 0.05)
	ws := dsp.NewWorkspace()
	Decide(ws, d)
	ws.Reset()
	if n := testing.AllocsPerRun(20, func() {
		if _, _, _, err := Decide(ws, d); err != nil {
			t.Fatal(err)
		}
		ws.Reset()
	}); n != 0 {
		t.Errorf("warmed Decide: %v allocs/run, want 0", n)
	}
}

// BenchmarkDecide slices and measures session bursts' decisions (64 B
// and 1024 B payloads: 576 and 8 256 symbols at 20 dB) on a warmed
// workspace. It cycles through 16 different bursts, as a session does:
// one burst replayed every iteration lets the branch predictor learn
// its bits.
func BenchmarkDecide(b *testing.B) {
	const inputs = 16
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			n := 8 * (frame.HeaderLen + size + frame.CRCLen)
			r := rand.New(rand.NewSource(int64(size)))
			d := make([][]complex128, inputs)
			for k := range d {
				d[k] = ookDecisions(r, n, 0.1, 0.05)
			}
			ws := dsp.NewWorkspace()
			Decide(ws, d[0]) // warm the workspace
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Decide(ws, d[i%inputs]); err != nil {
					b.Fatal(err)
				}
				ws.Reset()
			}
		})
	}
}
