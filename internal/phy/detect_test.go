package phy_test

import (
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/phy/phytest"
	"github.com/mmtag/mmtag/internal/rng"
)

// burst synthesizes the preamble followed by payloadBytes random bytes
// of OOK payload (none for 0) at w's sample rate.
func burst(t *testing.T, w phy.Waveform, payloadBytes int, seed uint64) []complex128 {
	t.Helper()
	bits := rng.New(seed).Bits(make([]byte, 8*payloadBytes))
	syms, err := phy.OOK{}.Modulate(phy.PreambleSymbols(0), bits)
	if err != nil {
		t.Fatal(err)
	}
	return w.Synthesize(syms)
}

// TestDetectBurstDegenerateInputs: acquisition must never panic on an
// arbitrary sample buffer, must reject one too short to hold the
// preamble, and must return an offset inside the capture otherwise.
// Where the forward search cannot lock — no amplitude span, or a
// preamble cut off by the capture's end — it must reproduce the
// whole-capture rule exactly.
func TestDetectBurstDegenerateInputs(t *testing.T) {
	w, err := phy.NewRectWaveform(4)
	if err != nil {
		t.Fatal(err)
	}
	minLen := (len(phy.Preamble13) + 1) * w.SPS
	noise := make([]complex128, 2000)
	rng.New(3).AWGN(noise, 1)
	dc := make([]complex128, 400)
	for i := range dc {
		dc[i] = 0.3 + 0.2i
	}
	atStart := append(burst(t, w, 16, 5), make([]complex128, 64)...)
	atEnd := append(make([]complex128, 300), burst(t, w, 0, 0)...)
	exact := burst(t, w, 0, 0)[:minLen-w.SPS]
	exact = append(exact, make([]complex128, w.SPS)...)
	for _, tc := range []struct {
		name    string
		w       phy.Waveform
		samples []complex128
		wantErr bool
		want    int // expected payload start; -1: the whole-capture rule's; -2: any
	}{
		{"all zeros", w, make([]complex128, 400), false, -1},
		{"constant DC", w, dc, false, -1},
		{"pure noise", w, noise, false, -2},
		{"burst at sample 0", w, atStart, false, len(phy.Preamble13) * w.SPS},
		{"burst ending at the last sample", w, atEnd, false, -1},
		{"exactly the minimum length", w, exact, false, -2},
		{"one sample too short", w, exact[:minLen-1], true, 0},
		{"empty", w, nil, true, 0},
		{"zero samples per symbol", phy.Waveform{}, noise, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := dsp.NewWorkspace()
			off, _, err := tc.w.DetectBurstWS(ws, tc.samples, 0)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted %d samples at sps %d", len(tc.samples), tc.w.SPS)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if off < 0 || off >= len(tc.samples) {
				t.Fatalf("payload start %d outside the %d-sample capture", off, len(tc.samples))
			}
			want := tc.want
			if want == -1 {
				if want, _, err = phytest.DetectBurstFullSearch(tc.w, tc.samples, 0); err != nil {
					t.Fatal(err)
				}
			}
			if want >= 0 && off != want {
				t.Fatalf("payload start %d, want %d", off, want)
			}
		})
	}
}

// TestDetectBurstSteadyStateAllocs: with a warmed workspace, acquisition
// allocates nothing, both when the forward search locks and when it
// falls back to searching every lag.
func TestDetectBurstSteadyStateAllocs(t *testing.T) {
	w, _ := phy.NewRectWaveform(4)
	for name, rx := range map[string][]complex128{
		"forward lock": append(make([]complex128, 64), burst(t, w, 64, 9)...),
		"fallback":     append(make([]complex128, 300), burst(t, w, 0, 0)...),
	} {
		ws := dsp.NewWorkspace()
		if _, _, err := w.DetectBurstWS(ws, rx, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			ws.Reset()
			_, _, _ = w.DetectBurstWS(ws, rx, 0)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per call with a warmed workspace, want 0", name, allocs)
		}
	}
}

// TestDetectBurstPreambleAcrossWindowEdge: a clean burst after a lead
// of any length locks at its true payload start, whether the first
// crossing lands early in the forward window, within two symbols of its
// edge (lags ≈ 120–127, where the refinement runs past it), or beyond
// it. The workspace is reused across captures of different lengths and
// holds recycled buffers of unrelated sizes, so no step may rely on a
// buffer's capacity.
func TestDetectBurstPreambleAcrossWindowEdge(t *testing.T) {
	w, err := phy.NewRectWaveform(4)
	if err != nil {
		t.Fatal(err)
	}
	tx := burst(t, w, 8, 11)
	ws := dsp.NewWorkspace()
	for lead := 0; lead <= 200; lead++ {
		ws.Reset()
		for _, n := range []int{137 + lead%5, 60, 176 - lead%3, 900} {
			ws.Float(n)
			ws.Complex(n + 1)
		}
		ws.Reset()
		rx := make([]complex128, lead+len(tx)+lead%7)
		for i := range rx[:lead] {
			rx[i] = 0.05
		}
		copy(rx[lead:], tx)
		off, _, err := w.DetectBurstWS(ws, rx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := lead + len(phy.Preamble13)*w.SPS; off != want {
			t.Fatalf("lead %d: payload start %d, want %d", lead, off, want)
		}
		if ref, _, _ := phytest.DetectBurstFullSearch(w, rx, 0); ref != off {
			t.Fatalf("lead %d: payload start %d, whole-capture rule %d", lead, off, ref)
		}
	}
}
