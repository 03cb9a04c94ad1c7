// Package codec owns the big-endian binary formats the control services
// persist: the path-server write-ahead log, beacon checkpoints, PCB wire
// bytes and the selector and chaos state blobs inside them. It holds two
// things. Reader is the sticky-error cursor every decoder reads through,
// so no decoder runs past its input or sizes an allocation from a length
// prefix the input cannot back. AppendFrame and NextFrame are the one
// frame format:
//
//	u32  payload length n
//	u32  CRC-32 (IEEE) of the payload
//	n bytes payload
//
// Encoders write with encoding/binary directly.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Reader is a big-endian cursor with a sticky error: the first read past
// the end latches an error, every later read returns zero, and Err and
// Done report it. Decoders keep a Reader on the stack; reading a field
// allocates nothing.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// take consumes n bytes, or latches an error and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = fmt.Errorf("truncated at offset %d (need %d of %d)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes reads n bytes. The result aliases the input (capped, so appends
// to it copy) and is nil once the reader has failed.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Count reads a u32 element count and checks that that many elements of
// at least minElemLen bytes each fit in the unread input. A count that
// passes can size an allocation or bound a decode loop; one that fails
// latches an error and reads as 0. minElemLen below 1 counts as 1.
func (r *Reader) Count(minElemLen int) int {
	n := r.U32()
	if minElemLen < 1 {
		minElemLen = 1
	}
	if r.err == nil && uint64(n)*uint64(minElemLen) > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("count %d of %d-byte elements at offset %d exceeds the %d bytes left",
			n, minElemLen, r.off-4, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if input is left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

const frameHeaderLen = 8

// AppendFrame appends payload to dst as one frame: u32 length, u32
// CRC-32 (IEEE) of the payload, then the payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// NextFrame splits the first frame off b and verifies its checksum.
// payload aliases b; rest is the input after the frame. On error rest is
// b unchanged, so the caller knows where the bad frame starts.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeaderLen {
		return nil, b, fmt.Errorf("frame header truncated (%d of %d bytes)", len(b), frameHeaderLen)
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-frameHeaderLen) {
		return nil, b, fmt.Errorf("frame payload truncated (need %d of %d bytes)", n, len(b)-frameHeaderLen)
	}
	end := frameHeaderLen + int(n)
	payload = b[frameHeaderLen:end:end]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, b, errors.New("frame fails CRC")
	}
	return payload, b[end:], nil
}
