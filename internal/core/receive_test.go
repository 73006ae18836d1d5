package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// receiveRef is RxChain.Receive as it was before the fading-free burst
// was written in one pass: the carrier scale, the optional fading and
// the leakage each in their own pass over the burst.
func receiveRef(rc *RxChain, tx []complex128, fading *channel.Fading, src *rng.Source) ([]complex128, error) {
	n := len(tx) + rxPadSyms*SamplesPerSymbol
	rx := make([]complex128, n)
	lead := rxLeadSyms * SamplesPerSymbol
	burst := rx[lead : lead+len(tx)]
	for i, v := range tx {
		burst[i] = v * rc.carrier
	}
	if fading != nil {
		series, err := fading.Series(len(tx), rc.SampleRateHz, src)
		if err != nil {
			return nil, err
		}
		channel.Apply(burst, series)
	}
	for i := range burst {
		burst[i] += rc.leak
	}
	for i := range rx[:lead] {
		rx[i] = rc.leak
	}
	for i := lead + len(tx); i < n; i++ {
		rx[i] = rc.leak
	}
	src.AWGN(rx, rc.noiseW)
	var mean complex128
	pre := lead / 2
	for _, v := range rx[:pre] {
		mean += v
	}
	mean /= complex(float64(pre), 0)
	for i := range rx {
		rx[i] -= mean
	}
	return rx, nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func testRxChain(t testing.TB, ft float64) RxChain {
	t.Helper()
	l, err := NewDefaultLink(units.FeetToMeters(ft))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := l.RxChain(l.Reader.Bandwidths[0])
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestReceiveMatchesMultiPassReference: the one-pass fading-free burst
// rounds the carrier product before adding the leakage (the conversion
// also keeps an FMA from fusing the two), exactly as the separate
// passes did, so every capture sample is identical bit for bit, for
// signed zeros, subnormals, huge and non-finite switch samples too. The
// fading path is unchanged and is checked alongside.
func TestReceiveMatchesMultiPassReference(t *testing.T) {
	rc := testRxChain(t, 2)
	r := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	special := []complex128{0, complex(negZero, negZero), complex(5e-324, -1e-310),
		complex(1e308, -1e308), complex(math.Inf(1), 0), complex(0, math.NaN())}
	for _, fading := range []*channel.Fading{nil, {KdB: 6, DopplerHz: 2e3}} {
		for _, n := range []int{0, 1, 37, 2356} {
			tx := make([]complex128, n)
			for i := range tx {
				if r.Intn(8) == 0 {
					tx[i] = special[r.Intn(len(special))]
				} else {
					tx[i] = complex(r.Float64(), r.NormFloat64()*1e-3)
				}
			}
			seed := uint64(100 + n)
			got, err := rc.Receive(nil, tx, fading, rng.New(seed))
			want, errRef := receiveRef(&rc, tx, fading, rng.New(seed))
			if (err == nil) != (errRef == nil) {
				t.Fatalf("fading %v, %d samples: error %v, want %v", fading != nil, n, err, errRef)
			}
			if len(got) != len(want) {
				t.Fatalf("fading %v, %d samples: len %d, want %d", fading != nil, n, len(got), len(want))
			}
			for i := range got {
				if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
					t.Fatalf("fading %v, %d samples: capture[%d] = %v, want %v", fading != nil, n, i, got[i], want[i])
				}
			}
		}
	}
}

// sessionBurst is the synthesized switch waveform of one session frame
// (a payloadBytes OOK burst) on rc.
func sessionBurst(t testing.TB, rc RxChain, payloadBytes int) []complex128 {
	t.Helper()
	ws := dsp.NewWorkspace()
	payload := rng.New(uint64(payloadBytes)).Bytes(make([]byte, payloadBytes))
	syms, err := tag.BurstSymbolsWS(ws, 1, frame.MCSOOK, 0.1, payload)
	if err != nil {
		t.Fatal(err)
	}
	return append([]complex128(nil), rc.W.SynthesizeWS(ws, syms)...)
}

// TestRxChainReceiveAllocs: receiving into a large enough dst allocates
// nothing.
func TestRxChainReceiveAllocs(t *testing.T) {
	rc := testRxChain(t, 2)
	tx := sessionBurst(t, rc, 64)
	dst := make([]complex128, len(tx)+rxPadSyms*SamplesPerSymbol)
	src := rng.New(1)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := rc.Receive(dst, tx, nil, src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RxChain.Receive: %v allocs/run, want 0", n)
	}
}

// BenchmarkRxChainReceive captures one session burst (64 B and 1024 B
// payloads, 2 ft, no fading) into a reused buffer.
func BenchmarkRxChainReceive(b *testing.B) {
	rc := testRxChain(b, 2)
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			tx := sessionBurst(b, rc, size)
			dst := make([]complex128, len(tx)+rxPadSyms*SamplesPerSymbol)
			src := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rc.Receive(dst, tx, nil, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
