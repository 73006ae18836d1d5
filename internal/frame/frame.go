// Package frame defines the over-the-air burst format a mmTag tag
// backscatters and the reader decodes, structured as a small layered
// packet model in the style of gopacket: each burst is
//
//	Preamble (13 Barker chips) | Header (6 bytes) | Payload | CRC-16
//
// with the header carrying version, tag ID, payload length and the
// modulation-and-coding index. Layers expose Contents/Payload accessors;
// a zero-allocation Parser decodes into preallocated layer structs, and a
// SerializeBuffer builds bursts by prepending layers, mirroring the
// gopacket serialization contract.
package frame

import (
	"encoding/binary"
	"fmt"
)

// Version is the frame format version emitted by this package.
const Version = 1

// HeaderLen is the fixed encoded header size in bytes.
const HeaderLen = 6

// CRCLen is the trailer length in bytes.
const CRCLen = 2

// MaxPayload is the largest payload a single burst may carry (bounded so
// a length field corrupted by noise cannot cause huge allocations).
const MaxPayload = 2048

// MCS identifies the modulation-and-coding scheme of the payload.
type MCS uint8

// Defined MCS indices.
const (
	MCSOOK MCS = iota
	MCSASK4
	MCSBPSK
	mcsCount
)

// String returns the scheme name.
func (m MCS) String() string {
	switch m {
	case MCSOOK:
		return "OOK"
	case MCSASK4:
		return "4-ASK"
	case MCSBPSK:
		return "BPSK"
	default:
		return fmt.Sprintf("MCS(%d)", uint8(m))
	}
}

// Valid reports whether the MCS index is defined.
func (m MCS) Valid() bool { return m < mcsCount }

// LayerType identifies a decoded layer.
type LayerType int

// The layer types of a tag burst.
const (
	LayerTypeHeader LayerType = iota + 1
	LayerTypePayload
	LayerTypeTrailer
)

// String names the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeHeader:
		return "Header"
	case LayerTypePayload:
		return "Payload"
	case LayerTypeTrailer:
		return "Trailer"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// Layer is one decoded slice of a burst, following the gopacket contract:
// LayerContents is the bytes belonging to this layer, LayerPayload the
// bytes it carries for the layers above.
type Layer interface {
	LayerType() LayerType
	LayerContents() []byte
	LayerPayload() []byte
}

// Header is the burst header layer.
type Header struct {
	Version uint8
	TagID   uint16
	Length  uint16 // payload byte count
	MCS     MCS

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (h *Header) LayerType() LayerType { return LayerTypeHeader }

// LayerContents implements Layer.
func (h *Header) LayerContents() []byte { return h.contents }

// LayerPayload implements Layer.
func (h *Header) LayerPayload() []byte { return h.payload }

// encode writes the header fields into dst (len ≥ HeaderLen).
func (h *Header) encode(dst []byte) {
	dst[0] = h.Version
	binary.BigEndian.PutUint16(dst[1:3], h.TagID)
	binary.BigEndian.PutUint16(dst[3:5], h.Length)
	dst[5] = uint8(h.MCS)
}

// DecodeFromBytes parses the header from data, retaining references into
// it (NoCopy semantics — the caller owns the buffer).
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("frame: header truncated: %d < %d bytes", len(data), HeaderLen)
	}
	h.Version = data[0]
	if h.Version != Version {
		return fmt.Errorf("frame: unsupported version %d", h.Version)
	}
	h.TagID = binary.BigEndian.Uint16(data[1:3])
	h.Length = binary.BigEndian.Uint16(data[3:5])
	h.MCS = MCS(data[5])
	if !h.MCS.Valid() {
		return fmt.Errorf("frame: invalid MCS %d", data[5])
	}
	if int(h.Length) > MaxPayload {
		return fmt.Errorf("frame: payload length %d exceeds max %d", h.Length, MaxPayload)
	}
	h.contents = data[:HeaderLen]
	h.payload = data[HeaderLen:]
	return nil
}

// Payload is the application-bytes layer.
type Payload struct {
	Data []byte
}

// LayerType implements Layer.
func (p *Payload) LayerType() LayerType { return LayerTypePayload }

// LayerContents implements Layer.
func (p *Payload) LayerContents() []byte { return p.Data }

// LayerPayload implements Layer.
func (p *Payload) LayerPayload() []byte { return nil }

// Trailer is the CRC layer.
type Trailer struct {
	CRC uint16
	OK  bool

	contents []byte
}

// LayerType implements Layer.
func (t *Trailer) LayerType() LayerType { return LayerTypeTrailer }

// LayerContents implements Layer.
func (t *Trailer) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *Trailer) LayerPayload() []byte { return nil }

// crcTable[b] is the CRC-16 register after shifting the byte b, placed
// in the high byte of an otherwise zero register, through eight steps of
// the polynomial 0x1021.
var crcTable = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// CRC16 computes the CCITT-FALSE CRC-16 (poly 0x1021, init 0xFFFF) over
// data — the checksum RFID-class air protocols use — a byte at a time
// through crcTable.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// Encode serializes a complete burst (header ‖ payload ‖ CRC) for the
// given tag ID and MCS.
func Encode(tagID uint16, mcs MCS, payload []byte) ([]byte, error) {
	return AppendEncode(nil, tagID, mcs, payload)
}

// AppendEncode appends a complete burst (header ‖ payload ‖ CRC) to dst
// and returns the extended slice — the allocation-free form of Encode
// for callers with a reusable buffer.
func AppendEncode(dst []byte, tagID uint16, mcs MCS, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("frame: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	if !mcs.Valid() {
		return nil, fmt.Errorf("frame: invalid MCS %d", mcs)
	}
	h := Header{Version: Version, TagID: tagID, Length: uint16(len(payload)), MCS: mcs}
	start := len(dst)
	var hb [HeaderLen]byte
	h.encode(hb[:])
	dst = append(dst, hb[:]...)
	dst = append(dst, payload...)
	crc := CRC16(dst[start:])
	dst = append(dst, byte(crc>>8), byte(crc))
	return dst, nil
}

// Decoded is a fully parsed burst.
type Decoded struct {
	Header  Header
	Payload Payload
	Trailer Trailer
}

// Layers returns the decoded layers in order.
func (d *Decoded) Layers() []Layer {
	return []Layer{&d.Header, &d.Payload, &d.Trailer}
}

// Parser decodes bursts into preallocated layers without allocating per
// packet (the DecodingLayerParser pattern).
type Parser struct {
	// Strict rejects bursts whose CRC fails; when false the decode
	// succeeds but Trailer.OK is false so the caller can count FER.
	Strict bool
}

// Decode parses data into d. It retains references into data.
func (p *Parser) Decode(data []byte, d *Decoded) error {
	if err := d.Header.DecodeFromBytes(data); err != nil {
		return err
	}
	rest := d.Header.LayerPayload()
	need := int(d.Header.Length) + CRCLen
	if len(rest) < need {
		return fmt.Errorf("frame: burst truncated: %d payload+CRC bytes, need %d", len(rest), need)
	}
	d.Payload.Data = rest[:d.Header.Length]
	crcStart := int(d.Header.Length)
	d.Trailer.contents = rest[crcStart : crcStart+CRCLen]
	d.Trailer.CRC = binary.BigEndian.Uint16(d.Trailer.contents)
	want := CRC16(data[:HeaderLen+int(d.Header.Length)])
	d.Trailer.OK = d.Trailer.CRC == want
	if p.Strict && !d.Trailer.OK {
		return fmt.Errorf("frame: CRC mismatch: got %04x, want %04x", d.Trailer.CRC, want)
	}
	return nil
}

// BitsFromBytes expands bytes to one-bit-per-byte MSB-first, the format
// the phy modulators consume. dst is reused if large enough.
func BitsFromBytes(dst []byte, data []byte) []byte {
	need := len(data) * 8
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	for i, b := range data {
		for j := 0; j < 8; j++ {
			dst[i*8+j] = (b >> uint(7-j)) & 1
		}
	}
	return dst
}

// BytesFromBits packs MSB-first bits back into bytes. len(bits) must be a
// multiple of 8.
func BytesFromBits(bits []byte) ([]byte, error) {
	return AppendBytesFromBits(nil, bits)
}

// AppendBytesFromBits packs MSB-first bits into bytes appended to dst —
// the allocation-free form of BytesFromBits.
func AppendBytesFromBits(dst []byte, bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("frame: bit count %d not a multiple of 8", len(bits))
	}
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			v := bits[i+j]
			if v > 1 {
				return nil, fmt.Errorf("frame: bit value %d", v)
			}
			b = b<<1 | v
		}
		dst = append(dst, b)
	}
	return dst, nil
}
