package stream

import (
	"fmt"
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
)

// TestSessionFrameIsLinkCapture: a session frame is the link's own burst
// path, not a copy of it. Frame i must equal, bit for bit, the capture
// core.Link.CaptureWaveformWS synthesizes for the same payload from the
// same per-frame source (seq.At(i) after the payload draw).
func TestSessionFrameIsLinkCapture(t *testing.T) {
	const frames = 200
	for _, rangeFt := range []float64{2, 4} {
		t.Run(fmt.Sprintf("%gft", rangeFt), func(t *testing.T) {
			cfg := SessionConfig{Frames: frames, RangeFt: rangeFt, Seed: 5}
			src, err := newSessionSource(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := src.link
			bw := l.Reader.Bandwidths[0]
			genWS, capWS := dsp.NewWorkspace(), dsp.NewWorkspace()
			payload := make([]byte, cfg.FrameBytes)
			var rx []complex128
			for i := 0; i < frames; i++ {
				genWS.Reset()
				if rx, err = src.gen(genWS, i, rx); err != nil {
					t.Fatal(err)
				}
				s := src.seq.At(uint64(i))
				s.Bytes(payload)
				capWS.Reset()
				c, err := l.CaptureWaveformWS(capWS, payload, frame.MCSOOK, bw, s)
				if err != nil {
					t.Fatal(err)
				}
				if len(rx) != len(c.Samples) {
					t.Fatalf("frame %d: %d samples, capture has %d", i, len(rx), len(c.Samples))
				}
				for k, v := range rx {
					w := c.Samples[k]
					if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
						t.Fatalf("frame %d sample %d: session %v, capture %v", i, k, v, w)
					}
				}
			}
		})
	}
}
