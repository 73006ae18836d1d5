package frame

import (
	"testing"

	"github.com/mmtag/mmtag/internal/rng"
)

// TestParserNeverPanicsOnGarbage throws random byte soup at the parser:
// it must reject or flag, never panic, and essentially never verify.
func TestParserNeverPanicsOnGarbage(t *testing.T) {
	src := rng.New(0xF00D)
	p := Parser{}
	falseAccepts := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		n := src.Intn(64)
		data := src.Bytes(make([]byte, n))
		var d Decoded
		if err := p.Decode(data, &d); err == nil && d.Trailer.OK {
			falseAccepts++
		}
	}
	// A random buffer must pass version+MCS+length checks AND a CRC-16;
	// the expected rate is ≪ 1e-4. Allow a couple of collisions.
	if falseAccepts > 3 {
		t.Errorf("%d false accepts in %d garbage frames", falseAccepts, trials)
	}
}

// TestParserTruncationSweep decodes every prefix of a valid burst: all
// must fail cleanly except the full frame.
func TestParserTruncationSweep(t *testing.T) {
	raw, err := Encode(0x0102, MCSOOK, []byte("truncate me"))
	if err != nil {
		t.Fatal(err)
	}
	p := Parser{Strict: true}
	for cut := 0; cut < len(raw); cut++ {
		var d Decoded
		if err := p.Decode(raw[:cut], &d); err == nil {
			t.Fatalf("prefix of %d bytes decoded", cut)
		}
	}
	var d Decoded
	if err := p.Decode(raw, &d); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
}

// TestParserExtraTrailingBytes verifies the parser tolerates captures
// longer than the frame (trailing noise bytes are normal after a burst).
func TestParserExtraTrailingBytes(t *testing.T) {
	raw, _ := Encode(9, MCSOOK, []byte{1, 2, 3})
	padded := append(append([]byte{}, raw...), 0xAA, 0xBB, 0xCC)
	var d Decoded
	if err := (&Parser{Strict: true}).Decode(padded, &d); err != nil {
		t.Fatalf("padded frame failed: %v", err)
	}
	if string(d.Payload.Data) != "\x01\x02\x03" {
		t.Error("payload corrupted by padding")
	}
}

// TestRandomPayloadStress round-trips many random payload sizes.
func TestRandomPayloadStress(t *testing.T) {
	src := rng.New(0xBEEF)
	for i := 0; i < 500; i++ {
		n := src.Intn(MaxPayload + 1)
		payload := src.Bytes(make([]byte, n))
		raw, err := Encode(uint16(i), MCSBPSK, payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var d Decoded
		if err := (&Parser{Strict: true}).Decode(raw, &d); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if int(d.Header.Length) != n {
			t.Fatalf("n=%d: length %d", n, d.Header.Length)
		}
	}
}

// FuzzParserDecode: on arbitrary bytes Decode returns an error or a
// frame, never panics. A decoded frame's payload is the Length bytes
// after the header, its trailer check is the CRC-16 of the header and
// payload, a strict parser accepts only frames that pass it, and a
// passing frame re-encodes to exactly the bytes it was parsed from.
// The seed corpus in testdata/fuzz/FuzzParserDecode holds valid frames,
// a corrupted CRC, a bad version, an undefined MCS, an oversized length
// and truncations.
func FuzzParserDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, strict bool) {
		var d Decoded
		p := Parser{Strict: strict}
		if err := p.Decode(data, &d); err != nil {
			return
		}
		n := int(d.Header.Length)
		if len(d.Payload.Data) != n || HeaderLen+n+CRCLen > len(data) {
			t.Fatalf("%d-byte payload from a %d-byte burst with Length %d", len(d.Payload.Data), len(data), n)
		}
		if ok := CRC16(data[:HeaderLen+n]) == d.Trailer.CRC; ok != d.Trailer.OK {
			t.Fatalf("Trailer.OK %v, CRC check %v", d.Trailer.OK, ok)
		}
		if strict && !d.Trailer.OK {
			t.Fatal("strict parser accepted a CRC failure")
		}
		if d.Trailer.OK {
			re, err := Encode(d.Header.TagID, d.Header.MCS, d.Payload.Data)
			if err != nil || string(re) != string(data[:HeaderLen+n+CRCLen]) {
				t.Fatalf("re-encoded frame %x (%v), parsed from %x", re, err, data[:HeaderLen+n+CRCLen])
			}
		}
	})
}
