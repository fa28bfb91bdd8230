package huffman

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// emitSyms packs syms' code words into w in order, two symbols per
// WriteBits call when their combined width fits one staged write.
func emitSyms(w *msbWriter, syms []int32, lenOf []uint8, codes []uint64) {
	i := 0
	for ; i+2 <= len(syms); i += 2 {
		s0, s1 := syms[i], syms[i+1]
		l0, l1 := uint(lenOf[s0]), uint(lenOf[s1])
		if l0+l1 <= 56 {
			w.WriteBits(codes[s0]<<l1|codes[s1], l0+l1)
			continue
		}
		w.WriteBits(codes[s0], l0)
		w.WriteBits(codes[s1], l1)
	}
	if i < len(syms) {
		s := syms[i]
		w.WriteBits(codes[s], uint(lenOf[s]))
	}
}

// encodeSingle is the single-stream reference encoder: the canonical
// table header, uvarint(body length), then every code word packed in
// order — the layout DecodeInto reads from legacy chunk payloads.
// Production no longer writes it; the DecodeInto tests and the lane
// differentials use it as their reference. Symbols must be
// non-negative.
func encodeSingle(syms []int32) ([]byte, error) {
	dst, lenOf, codes, _, err := buildTable(nil, syms, maxSymOf(syms), nil)
	if err != nil {
		return nil, err
	}
	w := newMSBWriter(len(syms) / 2)
	emitSyms(w, syms, lenOf, codes)
	body := w.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

// msbWriter accumulates bits most-significant-first into a byte buffer:
// the bit order bitstream.Reader consumes. Production encoders emit each
// lane straight into dst (emitLane); the reference encoders and the
// hand-built streams of these tests pack their code words here. The zero
// value is ready to use.
//
// Lifecycle: write bits, call Bytes once to flush and read the result,
// then Reset before reusing the writer — Bytes pads the final partial
// byte, so writing after Bytes without a Reset would corrupt the stream
// (the writer panics on that misuse rather than emitting garbage).
type msbWriter struct {
	buf    []byte
	cur    uint64 // bits staged, right-aligned in the low `n` bits
	n      uint   // number of staged bits (< 8 between calls)
	bits   int    // total bits written
	sealed bool   // Bytes has flushed; writes are invalid until Reset
}

// newMSBWriter returns an msbWriter with a capacity hint of n bytes.
func newMSBWriter(n int) *msbWriter {
	return &msbWriter{buf: make([]byte, 0, n)}
}

// Reset discards all written bits, retaining the underlying buffer, so a
// pooled writer can be reused without reallocating. It is the documented
// way to write again after Bytes.
func (w *msbWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.n, w.bits = 0, 0, 0
	w.sealed = false
}

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *msbWriter) WriteBit(b uint) {
	if w.sealed {
		panic("msbWriter: write after Bytes without Reset")
	}
	w.cur = w.cur<<1 | uint64(b&1)
	w.n++
	w.bits++
	if w.n == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.n = 0, 0
	}
}

// WriteBits appends the low `width` bits of v, most significant first.
// Widths above 56 split into two staged writes; width must be ≤ 64.
func (w *msbWriter) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if w.sealed {
		panic("msbWriter: write after Bytes without Reset")
	}
	if width > 56 {
		// split: high part then low 32
		w.writeBits(v>>32, width-32)
		w.writeBits(v&0xffffffff, 32)
		return
	}
	w.writeBits(v, width)
}

// writeBits is the staging fast path for width ≤ 56: one shift-or into the
// accumulator, then a single multi-byte flush of every completed byte.
// The flush stores a full 8-byte word and truncates the length back to
// the 1–7 bytes actually completed — when capacity allows — so the hot
// path is one branch and one store, with no memmove/growslice call per
// flush; the bytes emitted are identical to the append path it falls
// back to near the end of the buffer.
func (w *msbWriter) writeBits(v uint64, width uint) {
	w.cur = w.cur<<width | (v & (1<<width - 1))
	w.n += width
	w.bits += int(width)
	if w.n >= 8 {
		k := w.n >> 3 // 1..7 whole bytes ready
		w.n &= 7
		word := w.cur >> w.n << (64 - 8*k)
		if n := len(w.buf); cap(w.buf)-n >= 8 {
			w.buf = w.buf[: n+8 : cap(w.buf)]
			binary.BigEndian.PutUint64(w.buf[n:], word)
			w.buf = w.buf[:n+int(k)]
		} else {
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], word)
			w.buf = append(w.buf, tmp[:k]...)
		}
		w.cur &= 1<<w.n - 1
	}
}

// Bits returns the total number of bits written so far.
func (w *msbWriter) Bits() int { return w.bits }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// underlying buffer. The writer is sealed afterwards: call Reset before
// writing again (writes without a Reset panic).
func (w *msbWriter) Bytes() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.n)))
		w.cur, w.n = 0, 0
	}
	w.sealed = true
	return w.buf
}

// refWriter is the original bit-at-a-time writer, retained as the
// differential oracle of msbWriter's word-at-a-time staging.
type refWriter struct {
	buf  []byte
	cur  uint64
	n    uint
	bits int
}

func (w *refWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint64(b&1)
	w.n++
	w.bits++
	if w.n == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.n = 0, 0
	}
}

func (w *refWriter) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width > 56 {
		w.WriteBits(v>>32, width-32)
		w.WriteBits(v&0xffffffff, 32)
		return
	}
	w.cur = w.cur<<width | (v & (1<<width - 1))
	w.n += width
	w.bits += int(width)
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
	w.cur &= 1<<w.n - 1
}

func (w *refWriter) Bytes() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.n)))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := newMSBWriter(4)
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11110000, 8)
	buf := w.Bytes()
	// Expect 101 1111 0000 padded: 1011 1110 000xxxxx
	if buf[0] != 0b10111110 {
		t.Fatalf("first byte = %08b", buf[0])
	}
	if buf[1]&0b11100000 != 0 {
		t.Fatalf("second byte = %08b", buf[1])
	}
}

// TestWideWrites checks the split path of writes wider than 56 bits.
func TestWideWrites(t *testing.T) {
	w := newMSBWriter(16)
	w.WriteBits(0xDEADBEEFCAFE, 48)
	w.WriteBits(0x1FFFFFFFFFFFFFF, 57) // > 56 takes the split path
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x80}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("bytes %x, want %x", got, want)
	}
}

func TestZeroWidthWrite(t *testing.T) {
	w := newMSBWriter(1)
	w.WriteBits(123, 0)
	if w.Bits() != 0 {
		t.Fatal("zero-width write should write nothing")
	}
}

func TestWriterResetLifecycle(t *testing.T) {
	w := newMSBWriter(8)
	w.WriteBits(0b1011, 4)
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	if w.Bits() != 0 {
		t.Fatalf("Bits after Reset = %d", w.Bits())
	}
	w.WriteBits(0b1011, 4)
	if got := w.Bytes(); !bytes.Equal(got, first) {
		t.Fatalf("post-Reset bytes %x != first use %x", got, first)
	}
}

func TestWriterSealedPanics(t *testing.T) {
	w := newMSBWriter(1)
	w.WriteBit(1)
	w.Bytes()
	defer func() {
		if recover() == nil {
			t.Fatal("write after Bytes without Reset should panic")
		}
	}()
	w.WriteBits(3, 2)
}

// FuzzWriterDifferential checks the word-at-a-time msbWriter emits bytes
// identical to the bit-at-a-time reference for any write schedule. Each
// op is 10 fuzz bytes — 1 selector, 1 width, 8 value — mixing WriteBit
// and WriteBits at arbitrary bit offsets.
func FuzzWriterDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 55, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0x01, 0x02})
	f.Add(bytes.Repeat([]byte{1, 63, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &msbWriter{}
		ref := &refWriter{}
		for ops := 0; len(data) >= 10 && ops < 512; ops++ {
			width := uint(data[1]%64) + 1 // 1..64
			v := binary.LittleEndian.Uint64(data[2:10])
			if data[0]&1 == 1 {
				w.WriteBits(v, width)
				ref.WriteBits(v, width)
			} else {
				w.WriteBit(uint(v & 1))
				ref.WriteBit(uint(v & 1))
			}
			if w.Bits() != ref.bits {
				t.Fatalf("Bits() = %d, reference %d", w.Bits(), ref.bits)
			}
			data = data[10:]
		}
		got, want := w.Bytes(), ref.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("writer bytes differ:\n got %x\nwant %x", got, want)
		}
	})
}
