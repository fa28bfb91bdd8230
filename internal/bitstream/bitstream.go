// Package bitstream implements the bit-level primitives of the entropy
// stages: the MSB-first Reader the Huffman decoders pull variable-length
// codes from, and the LSB-first writer of the DEFLATE encoder.
//
// Both operate word-at-a-time: the Reader refills a 64-bit window from up
// to 8 input bytes at once and the decoder consumes codes straight from
// that window, and the LSBWriter stages bits in a 64-bit accumulator and
// flushes whole groups of bytes per call, so the per-bit function call
// and error check of a naive implementation never appear on the hot
// path. The Reader's bit order is fuzzed against the original
// bit-at-a-time reader (retained as the reference in the tests).
package bitstream

import (
	"encoding/binary"
	"errors"
)

// ErrOutOfBits reports a code that runs past the end of a stream; the
// decoders built on Reader return it.
var ErrOutOfBits = errors.New("bitstream: out of bits")

// Reader consumes bits most-significant-first from a byte slice. It keeps
// a 64-bit staging window refilled from up to 8 input bytes at a time, so
// short reads are branch-light: one window check, one shift. Reset
// points a zero Reader at a stream.
type Reader struct {
	buf []byte
	pos int    // next byte to refill from
	w   uint64 // staging window, left-aligned (next stream bit at bit 63)
	wn  uint   // number of valid bits in w
}

// Reset points the Reader at buf and rewinds it, retaining no state from
// the previous stream, so a pooled Reader can be reused across chunks.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.w, r.wn = 0, 0
}

// refill tops the staging window up to ≥ 57 valid bits (or to the end of
// the stream), loading 8 bytes in one aligned read when possible. The
// fast path is deliberately branch- and loop-free so refill inlines into
// the packed decode loops (and into Refill4): OR a full 8-byte load
// under the valid bits, then account exactly the whole bytes that fit.
// The unaccounted low bits are the true next bits of the stream, so
// re-ORing them on a later refill is idempotent — which also makes wn==0
// just the degenerate OR into an all-shifted-out window (and nets the
// full 64 bits).
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		k := (64 - r.wn) >> 3
		r.w |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.wn
		r.pos += int(k)
		r.wn += k << 3
		return
	}
	r.refillTail()
}

// refillTail is the end-of-stream byte-at-a-time refill.
func (r *Reader) refillTail() {
	for r.wn <= 56 && r.pos < len(r.buf) {
		r.w |= uint64(r.buf[r.pos]) << (56 - r.wn)
		r.wn += 8
		r.pos++
	}
}

// Refill tops the staging window up to ≥ 57 valid bits (or to the end of
// the stream), letting a tight decode loop refill once and then consume
// several variable-length codes from the window with no per-code checks:
//
//	if r.Buffered() < maxLen { r.Refill() }
//	w := r.Window()          // next bits, MSB-aligned, zero-padded
//	l := lengthOf(w)         // decoder-specific
//	if l > r.Buffered() { …exhausted… }
//	r.Skip(l)
func (r *Reader) Refill() { r.refill() }

// Buffered returns the number of valid bits currently staged in the
// window — the maximum width Skip may consume without a Refill.
func (r *Reader) Buffered() uint { return r.wn }

// Window returns the staging window: the next Buffered() bits of the
// stream, MSB-aligned at bit 63. The bits below them are the stream's
// following bits as far as a refill loaded them, then zeros — zeros
// throughout past the end of the stream. It does not refill or consume.
func (r *Reader) Window() uint64 { return r.w }

// Skip consumes width bits from the staging window without any checks;
// the caller must ensure width ≤ Buffered().
func (r *Reader) Skip(width uint) {
	r.w <<= width
	r.wn -= width
}

// Refill4 tops up four readers' staging windows in one fused call — the
// multi-stream decode loops (huffman.DecodeLanes4Into) keep four
// independent lane readers in flight and refill them together once per
// round, so the four memory loads issue back to back instead of being
// interleaved with each lane's symbol resolution. Each window ends up
// with ≥ 57 valid bits or the remainder of its lane's stream, exactly as
// four Refill calls would leave them.
func Refill4(a, b, c, d *Reader) {
	a.refill()
	b.refill()
	c.refill()
	d.refill()
}
