package stream

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/phy/phytest"
)

// sessionSyncOffset is where a correct lock lands in a session capture:
// after the 16-symbol lead and the 13-symbol preamble, at 4 samples per
// symbol.
const sessionSyncOffset = 116

// TestSessionSyncNoMislock: at 2 ft every session frame must sync on the
// preamble, never on a payload run that correlates as well, and decode.
// The whole-capture search locked on the payload in 43 of 3 000 64 B
// frames and 101 of 600 1024 B frames at seed 1.
func TestSessionSyncNoMislock(t *testing.T) {
	for _, tc := range []struct {
		frameBytes, frames int
		seed               uint64
	}{
		{64, 3000, 1}, {64, 3000, 7919}, {1024, 600, 1}, {1024, 600, 7919},
	} {
		t.Run(fmt.Sprintf("%dB/seed%d", tc.frameBytes, tc.seed), func(t *testing.T) {
			cfg := SessionConfig{Frames: tc.frames, FrameBytes: tc.frameBytes, RangeFt: 2, Seed: tc.seed}
			src, err := newSessionSource(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder(src.shape)
			ws := dsp.NewWorkspace()
			truth := make([]byte, tc.frameBytes)
			var rx []complex128
			mislocks, decoded := 0, 0
			for i := 0; i < tc.frames; i++ {
				ws.Reset()
				if rx, err = src.gen(ws, i, rx); err != nil {
					t.Fatal(err)
				}
				f := dec.Decode(i, rx)
				if f.SyncOffset != sessionSyncOffset {
					mislocks++
				}
				if f.Err == nil && f.OK && f.TagID == src.link.Tag.ID &&
					bytes.Equal(f.Payload, src.seq.At(uint64(i)).Bytes(truth)) {
					decoded++
				}
			}
			if mislocks != 0 || decoded != tc.frames {
				t.Errorf("%d of %d frames mislocked, %d decoded", mislocks, tc.frames, decoded)
			}
		})
	}
}

// TestSyncMatchesFullSearchOverRange sweeps the session from 2 to 6 ft
// and compares DetectBurstWS with the whole-capture reference rule on
// every capture: wherever the reference locks at the correct offset the
// two agree, and at no range does decoding from the new offsets deliver
// fewer frames than decoding from the reference's.
func TestSyncMatchesFullSearchOverRange(t *testing.T) {
	const frames, frameBytes = 1000, 64
	for _, rangeFt := range []float64{2, 3, 4, 5, 6} {
		cfg := SessionConfig{Frames: frames, FrameBytes: frameBytes, RangeFt: rangeFt, Seed: 3}
		src, err := newSessionSource(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := src.shape.W
		ws := dsp.NewWorkspace()
		truth := make([]byte, frameBytes)
		var j job
		// delivered decodes rx from sync offset off the way stream.Decoder
		// does after its sync stage.
		delivered := func(i int, rx []complex128, off int) bool {
			j.reset(i)
			j.samples = rx
			j.out.SyncOffset = off
			ws.Reset()
			src.shape.stageDemod(ws, &j)
			if j.out.Err == nil {
				ws.Reset()
				src.shape.stageDecode(ws, &j)
			}
			return j.out.Err == nil && j.out.OK && j.out.TagID == src.link.Tag.ID &&
				bytes.Equal(j.out.Payload, src.seq.At(uint64(i)).Bytes(truth))
		}
		var rx []complex128
		oldLocked, oldDecoded, newDecoded := 0, 0, 0
		for i := 0; i < frames; i++ {
			ws.Reset()
			if rx, err = src.gen(ws, i, rx); err != nil {
				t.Fatal(err)
			}
			ref, _, err := phytest.DetectBurstFullSearch(w, rx, 0)
			if err != nil {
				t.Fatal(err)
			}
			ws.Reset()
			got, _, err := w.DetectBurstWS(ws, rx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ref == sessionSyncOffset {
				oldLocked++
				if got != ref {
					t.Fatalf("%g ft frame %d: offset %d where the full search locks at %d", rangeFt, i, got, ref)
				}
			}
			if delivered(i, rx, ref) {
				oldDecoded++
			}
			if delivered(i, rx, got) {
				newDecoded++
			}
		}
		t.Logf("%g ft: full search locks %d/%d and delivers %d, forward search delivers %d",
			rangeFt, oldLocked, frames, oldDecoded, newDecoded)
		if newDecoded < oldDecoded {
			t.Errorf("%g ft: forward search delivers %d frames, full search %d", rangeFt, newDecoded, oldDecoded)
		}
	}
}
