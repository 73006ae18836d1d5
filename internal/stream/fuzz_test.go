package stream

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
)

// fuzzFrameBytes is the payload size the fuzzed stream decoder expects;
// the seed corpus's real capture carries a frame of this size.
const fuzzFrameBytes = 8

// samplesFromBytes reads up to 1<<14 samples, 16 little-endian bytes
// each (real, then imaginary part), from data.
func samplesFromBytes(data []byte) []complex128 {
	n := min(len(data)/16, 1<<14)
	s := make([]complex128, n)
	for i := range s {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		s[i] = complex(re, im)
	}
	return s
}

// FuzzDecodeArbitrarySamples: both decoders — reader.DecodeBurstWS and
// the staged stream.Decoder — take arbitrary sample buffers (any
// length, NaN, ±Inf, −0) and return an error or a frame that fits the
// capture; they never panic. The seed corpus in
// testdata/fuzz/FuzzDecodeArbitrarySamples holds a real 2 ft capture,
// its truncations and non-finite variants.
func FuzzDecodeArbitrarySamples(f *testing.F) {
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		f.Fatal(err)
	}
	shape, err := NewShape(w, fuzzFrameBytes)
	if err != nil {
		f.Fatal(err)
	}
	ws, dec := dsp.NewWorkspace(), NewDecoder(shape)
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := samplesFromBytes(data)
		ws.Reset()
		d, _, err := reader.DecodeBurstWS(ws, samples, w)
		if err == nil && (d == nil || len(d.Payload.Data) > frame.MaxPayload) {
			t.Fatalf("reader: no error and decoded %+v", d)
		}
		fr := dec.Decode(0, samples)
		if fr.Err == nil && len(fr.Payload) > fuzzFrameBytes {
			t.Fatalf("stream: no error and a %d-byte payload from %d-byte frames", len(fr.Payload), fuzzFrameBytes)
		}
	})
}
