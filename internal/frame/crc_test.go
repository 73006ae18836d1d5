package frame

import (
	"testing"

	"github.com/mmtag/mmtag/internal/rng"
)

// crc16Ref is the bitwise CCITT-FALSE CRC-16 that the table-driven
// CRC16 must reproduce.
func crc16Ref(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwise(t *testing.T) {
	src := rng.New(16)
	buf := make([]byte, 2048)
	for n := 0; n <= len(buf); n++ {
		data := src.Bytes(buf[:n])
		if got, want := CRC16(data), crc16Ref(data); got != want {
			t.Fatalf("len %d: CRC16 = %04x, bitwise reference %04x", n, got, want)
		}
	}
}

func BenchmarkCRC16(b *testing.B) {
	// Header plus a 64-byte payload: one session frame's checksum.
	data := rng.New(1).Bytes(make([]byte, HeaderLen+64))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crcSink = CRC16(data)
	}
}

var crcSink uint16
