package codec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"scionmpr/internal/codec"
)

func TestReaderFields(t *testing.T) {
	in, _ := hex.DecodeString("01" + "0203" + "04050607" + "08090a0b0c0d0e0f" + "aabb")
	r := codec.NewReader(in)
	if v := r.U8(); v != 0x01 {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0x0203 {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0x04050607 {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x08090a0b0c0d0e0f {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.Bytes(2); !bytes.Equal(v, []byte{0xaa, 0xbb}) {
		t.Errorf("Bytes = %x", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestReaderErrorIsSticky(t *testing.T) {
	r := codec.NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 {
		t.Errorf("overrunning U32 = %d, want 0", v)
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "truncated at offset 0 (need 4 of 3)") {
		t.Fatalf("Err = %v", err)
	}
	// The bytes that would fit are no longer handed out.
	if v, b := r.U8(), r.Bytes(1); v != 0 || b != nil {
		t.Errorf("reads after failure = %d, %v", v, b)
	}
	if r.Bytes(-1) != nil || r.Done() != err {
		t.Error("failure did not stick")
	}
	if r := codec.NewReader([]byte{1}); r.Bytes(-1) != nil || r.Err() == nil {
		t.Error("negative length accepted")
	}
}

func TestReaderBytesAliasCapped(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	r := codec.NewReader(in)
	b := r.Bytes(2)
	b[0] = 9
	if in[0] != 9 {
		t.Error("Bytes copied instead of aliasing")
	}
	_ = append(b, 7)
	if in[2] != 3 {
		t.Error("append to a Bytes result overwrote the input")
	}
}

func TestReaderDoneTrailing(t *testing.T) {
	r := codec.NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Errorf("Done = %v", err)
	}
}

func TestReaderCount(t *testing.T) {
	body := func(n uint32, extra int) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), make([]byte, extra)...)
	}
	for _, c := range []struct {
		name    string
		in      []byte
		minLen  int
		want    int
		wantErr bool
	}{
		{"exact fit", body(3, 12), 4, 3, false},
		{"one byte short", body(3, 11), 4, 0, true},
		{"zero elements", body(0, 0), 8, 0, false},
		{"max count, 1-byte elements", body(1<<32-1, 16), 1, 0, true},
		{"max count, large elements", body(1<<32-1, 16), 1 << 20, 0, true},
		{"minLen 0 counts as 1", body(5, 4), 0, 0, true},
		{"truncated prefix", []byte{0, 0, 1}, 1, 0, true},
	} {
		r := codec.NewReader(c.in)
		got := r.Count(c.minLen)
		if got != c.want || (r.Err() != nil) != c.wantErr {
			t.Errorf("%s: Count = %d, err %v; want %d, error %v", c.name, got, r.Err(), c.want, c.wantErr)
		}
	}
}

// TestReaderAllocatesNothing pins the property the WAL replay and
// checkpoint loads rely on: a Reader is a stack value and reading fields
// allocates nothing.
func TestReaderAllocatesNothing(t *testing.T) {
	in := make([]byte, 64)
	binary.BigEndian.PutUint32(in[15:], 2)
	allocs := testing.AllocsPerRun(100, func() {
		r := codec.NewReader(in)
		r.U8()
		r.U16()
		r.U32()
		r.U64()
		for i, n := 0, r.Count(8); i < n; i++ {
			r.U64()
		}
		r.Bytes(len(in) - 35)
		if r.Done() != nil {
			t.Fatal(r.Done())
		}
	})
	if allocs != 0 {
		t.Errorf("decoding allocated %.0f times", allocs)
	}
}

func TestAppendFrameLayout(t *testing.T) {
	// CRC-32 (IEEE) of "abc" is 0x352441c2.
	got := hex.EncodeToString(codec.AppendFrame([]byte{0xee}, []byte("abc")))
	if want := "ee" + "00000003" + "352441c2" + "616263"; got != want {
		t.Errorf("AppendFrame = %s, want %s", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xa5}, 300)}
	var log []byte
	for _, p := range payloads {
		log = codec.AppendFrame(log, p)
	}
	rest := log
	for i, want := range payloads {
		got, next, err := codec.NextFrame(rest)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %x, %v; want %x", i, got, err, want)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after the last frame", len(rest))
	}
}

func TestNextFrameRejects(t *testing.T) {
	good := codec.AppendFrame(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	huge := append([]byte{0xff, 0xff, 0xff, 0xff}, good[4:]...)
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"empty", "header truncated", nil},
		{"short header", "header truncated", good[:7]},
		{"short payload", "payload truncated", good[:len(good)-1]},
		{"huge length", "payload truncated", huge},
		{"bad CRC", "fails CRC", flipped},
	} {
		payload, rest, err := codec.NextFrame(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if payload != nil || len(rest) != len(c.in) {
			t.Errorf("%s: bad frame consumed input (payload %x, %d of %d left)", c.name, payload, len(rest), len(c.in))
		}
	}
}

// FuzzReader runs a random sequence of reads over random bytes against a
// model cursor. Each op byte selects the read in its low 3 bits and a
// length or element size in the rest. The Reader must never panic, must
// return exactly the model's bytes and values, must stop at the first
// read that does not fit, and Done must succeed exactly when every byte
// was consumed without a failed read.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4 | 2<<3, 5 | 1<<3}, []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{3, 3, 3}, []byte{1, 2, 3})
	f.Add([]byte{5 | 8<<3}, []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := codec.NewReader(data)
		off, failed := 0, false
		// next consumes n bytes from the model, reporting whether they fit.
		next := func(n int) ([]byte, bool) {
			if failed || n > len(data)-off {
				failed = true
				return nil, false
			}
			off += n
			return data[off-n : off], true
		}
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				want, ok := next(1)
				if got := r.U8(); ok && got != want[0] || !ok && got != 0 {
					t.Fatalf("U8 = %d at %d", got, off)
				}
			case 1:
				want, ok := next(2)
				if got := r.U16(); ok && got != binary.BigEndian.Uint16(want) || !ok && got != 0 {
					t.Fatalf("U16 = %d at %d", got, off)
				}
			case 2, 6:
				want, ok := next(4)
				if got := r.U32(); ok && got != binary.BigEndian.Uint32(want) || !ok && got != 0 {
					t.Fatalf("U32 = %d at %d", got, off)
				}
			case 3, 7:
				want, ok := next(8)
				if got := r.U64(); ok && got != binary.BigEndian.Uint64(want) || !ok && got != 0 {
					t.Fatalf("U64 = %d at %d", got, off)
				}
			case 4:
				want, ok := next(arg)
				if got := r.Bytes(arg); !bytes.Equal(got, want) || arg > 0 && ok != (got != nil) {
					t.Fatalf("Bytes(%d) = %x at %d", arg, got, off)
				}
			case 5:
				prefix, ok := next(4)
				var n uint64
				if ok {
					n = uint64(binary.BigEndian.Uint32(prefix))
					if n*uint64(max(arg, 1)) > uint64(len(data)-off) {
						failed, n = true, 0
					}
				}
				if got := r.Count(arg); uint64(got) != n {
					t.Fatalf("Count(%d) = %d, want %d", arg, got, n)
				}
			}
			if (r.Err() != nil) != failed {
				t.Fatalf("Err = %v, model failed = %v", r.Err(), failed)
			}
		}
		if done := r.Done() == nil; done != (!failed && off == len(data)) {
			t.Fatalf("Done = %v with %d of %d bytes consumed (failed %v)", r.Done(), off, len(data), failed)
		}
	})
}
