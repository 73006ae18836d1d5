package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// TestReaderSyncNoMislock: 64 B bursts captured at 2 ft on the widest
// channel, each payload drawn from the same source as its noise, must
// all sync on the preamble: 116 samples in, after the 16-symbol lead and
// the 13-symbol preamble. The whole-capture search locked on a payload
// run in 55 of these 3 000 captures at seed 1.
func TestReaderSyncNoMislock(t *testing.T) {
	const bursts, frameBytes = 3000, 64
	want := (16 + len(phy.Preamble13)) * SamplesPerSymbol
	if want != 116 {
		t.Fatalf("capture geometry puts the payload at %d, want 116", want)
	}
	for _, seed := range []uint64{1, 7919} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			l, err := NewDefaultLink(units.FeetToMeters(2))
			if err != nil {
				t.Fatal(err)
			}
			bw := l.Reader.Bandwidths[0]
			w, err := phy.NewRectWaveform(SamplesPerSymbol)
			if err != nil {
				t.Fatal(err)
			}
			ws := dsp.NewWorkspace()
			src := rng.New(seed)
			payload := make([]byte, frameBytes)
			mislocks := 0
			for i := 0; i < bursts; i++ {
				ws.Reset()
				src.Bytes(payload)
				c, err := l.CaptureWaveformWS(ws, payload, frame.MCSOOK, bw, src)
				if err != nil {
					t.Fatal(err)
				}
				_, stats, err := reader.DecodeBurstWS(ws, c.Samples, w)
				if errors.Is(err, reader.ErrSync) {
					t.Fatalf("burst %d: %v", i, err)
				}
				if stats.SyncOffset != want {
					mislocks++
				}
			}
			if mislocks != 0 {
				t.Errorf("%d of %d bursts synced away from the preamble", mislocks, bursts)
			}
		})
	}
}
