package bitstream

import "encoding/binary"

// LSBWriter accumulates bits least-significant-first into a byte buffer —
// the bit order DEFLATE (RFC 1951) uses, where the first bit of the
// stream occupies the least significant bit of the first byte. It is the
// LSB-first sibling of Writer and follows the same word-at-a-time
// pattern: bits are staged in a 64-bit accumulator and every completed
// byte is flushed with a single LittleEndian.PutUint64 per call, so the
// per-bit loop of a naive implementation never appears on the hot path.
//
// The zero value is ready to use. Unlike Writer there is no sealing:
// Bytes flushes the final partial byte (zero-padded in its high bits)
// and the caller is expected to Reset before reuse.
type LSBWriter struct {
	buf []byte
	cur uint64 // staged bits, the next stream bit at bit `n`
	n   uint   // number of staged bits (< 8 between calls)
}

// Reset discards all written bits, retaining the underlying buffer.
func (w *LSBWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.n = 0, 0
}

// ResetTo rewinds the writer and arranges for subsequent writes to
// append to buf (which may hold existing, byte-aligned content). The
// caller receives the combined slice back from Bytes.
func (w *LSBWriter) ResetTo(buf []byte) {
	w.buf = buf
	w.cur, w.n = 0, 0
}

// WriteBits appends the low `width` bits of v, least significant first.
// width must be ≤ 56 and v must have no bits set at or above `width`
// (DEFLATE emitters always satisfy both: the longest single item is a
// 15-bit code followed by 13 extra bits, written separately).
func (w *LSBWriter) WriteBits(v uint64, width uint) {
	w.cur |= v << w.n
	w.n += width
	if w.n >= 8 {
		k := w.n >> 3 // 1..7 whole bytes ready
		// Store a full 8-byte word and truncate to the completed bytes
		// when capacity allows: one branch and one store per flush,
		// no memmove/growslice call. Identical bytes to the append
		// fallback taken near the end of the buffer.
		if n := len(w.buf); cap(w.buf)-n >= 8 {
			w.buf = w.buf[: n+8 : cap(w.buf)]
			binary.LittleEndian.PutUint64(w.buf[n:], w.cur)
			w.buf = w.buf[:n+int(k)]
		} else {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], w.cur)
			w.buf = append(w.buf, tmp[:k]...)
		}
		w.cur >>= k * 8
		w.n &= 7
	}
}

// AlignByte pads the stream with zero bits up to the next byte boundary
// (a no-op when already aligned). DEFLATE stored blocks require it.
func (w *LSBWriter) AlignByte() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.n = 0, 0
	}
}

// WriteBytes appends whole bytes to the stream. The stream must be
// byte-aligned (call AlignByte first); stored-block payloads use it to
// bypass the bit accumulator entirely.
func (w *LSBWriter) WriteBytes(p []byte) {
	if w.n != 0 {
		panic("bitstream: WriteBytes on unaligned LSBWriter")
	}
	w.buf = append(w.buf, p...)
}

// Bits returns the total number of bits written so far.
func (w *LSBWriter) Bits() int { return len(w.buf)*8 + int(w.n) }

// Bytes flushes any partial byte (zero-padded in its high bits) and
// returns the underlying buffer. Call Reset before writing again.
func (w *LSBWriter) Bytes() []byte {
	w.AlignByte()
	return w.buf
}
