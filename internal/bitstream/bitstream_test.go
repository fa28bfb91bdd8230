package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.wn)
}

// readBits is the decode loops' read pattern over the Reader's window
// primitives: refill when the window runs short, take the next width
// bits from the top of the window, skip them. ok is false when fewer
// than width bits remain; nothing is consumed then.
func readBits(r *Reader, width uint) (v uint64, ok bool) {
	if r.Buffered() < width {
		r.Refill()
		if r.Buffered() < width {
			return 0, false
		}
	}
	v = r.Window() >> (64 - width)
	r.Skip(width)
	return v, true
}

func TestSingleBits(t *testing.T) {
	pattern := []uint64{1, 0, 1, 1, 0, 0, 1, 0, 1, 1} // 10 bits
	r := NewReader([]byte{0b10110010, 0b11000000})
	for i, want := range pattern {
		got, ok := readBits(r, 1)
		if !ok || got != want {
			t.Fatalf("bit %d = %d (ok %v), want %d", i, got, ok, want)
		}
	}
	if r.Remaining() != 6 {
		t.Fatalf("Remaining = %d, want 6", r.Remaining())
	}
}

func TestReaderExhaustion(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if v, ok := readBits(r, 8); !ok || v != 0xFF {
		t.Fatalf("readBits(8) = %x, %v", v, ok)
	}
	r.Refill()
	if r.Buffered() != 0 || r.Remaining() != 0 || r.Window() != 0 {
		t.Fatalf("exhausted reader: Buffered %d, Remaining %d, Window %x", r.Buffered(), r.Remaining(), r.Window())
	}
	if _, ok := readBits(r, 1); ok {
		t.Fatal("read past the end succeeded")
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
	readBits(r, 5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining = %d, want 11", r.Remaining())
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xA5})
	if _, ok := readBits(r, 8); !ok {
		t.Fatal("short read")
	}
	r.Reset([]byte{0xFF, 0x00})
	if r.Remaining() != 16 || r.Buffered() != 0 {
		t.Fatalf("after Reset: Remaining %d, Buffered %d", r.Remaining(), r.Buffered())
	}
	if v, ok := readBits(r, 16); !ok || v != 0xFF00 {
		t.Fatalf("read after Reset = %x, %v", v, ok)
	}
}

// TestPeekConsume checks the decode loops' peek and consume: Window
// peeks without consuming, zero-padded past the end of the stream, and
// Buffered bounds what Skip may consume.
func TestPeekConsume(t *testing.T) {
	r := NewReader([]byte{0b10110100, 0b11001010})
	r.Refill()
	if r.Buffered() != 16 {
		t.Fatalf("Buffered = %d, want 16", r.Buffered())
	}
	if got := r.Window() >> (64 - 3); got != 0b101 {
		t.Fatalf("peek 3 = %b", got)
	}
	if got := r.Window() >> (64 - 5); got != 0b10110 {
		t.Fatalf("second peek 5 = %b", got)
	}
	r.Skip(5)
	if got := r.Window() >> (64 - 11); got != 0b10011001010 {
		t.Fatalf("peek 11 = %011b", got)
	}
	r.Skip(8)
	if got := r.Window() >> (64 - 8); got != 0b01000000 {
		t.Fatalf("padded peek 8 = %08b", got)
	}
	r.Skip(3)
	r.Refill()
	if r.Buffered() != 0 || r.Remaining() != 0 {
		t.Fatalf("Buffered %d, Remaining %d after the last bit", r.Buffered(), r.Remaining())
	}
}

// Property: reading any buffer through the window in any schedule of
// widths yields the reference reader's bits.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(buf []byte, widths []uint8) bool {
		r := NewReader(buf)
		ref := &refReader{buf: buf}
		for _, w := range widths {
			width := uint(w%57) + 1
			got, ok := readBits(r, width)
			want, err := ref.ReadBits(width)
			if ok != (err == nil) || got != want {
				return false
			}
			if !ok {
				return r.Remaining() < int(width)
			}
		}
		return r.Remaining() == ref.Remaining()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedBitAndBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 1200)
	rng.Read(buf)
	r := NewReader(buf)
	ref := &refReader{buf: buf}
	for i := 0; i < 1000; i++ {
		width := uint(1)
		if rng.Intn(2) == 1 {
			width = 16
		}
		got, ok := readBits(r, width)
		want, err := ref.ReadBits(width)
		if !ok || err != nil || got != want {
			t.Fatalf("op %d (width %d) = %x (ok %v), reference %x (%v)", i, width, got, ok, want, err)
		}
	}
}

func TestWindowSkipRefill(t *testing.T) {
	// 12 bytes so the first refill takes the aligned 8-byte path and the
	// top-up refill takes the branchless partial path.
	buf := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}
	r := NewReader(buf)
	if r.Buffered() != 0 {
		t.Fatalf("Buffered before Refill = %d", r.Buffered())
	}
	r.Refill()
	if r.Buffered() != 64 {
		t.Fatalf("Buffered after aligned Refill = %d", r.Buffered())
	}
	if got := r.Window() >> (64 - 16); got != 0xdead {
		t.Fatalf("Window top 16 = %04x", got)
	}
	r.Skip(16)
	if r.Buffered() != 48 {
		t.Fatalf("Buffered after Skip(16) = %d", r.Buffered())
	}
	if got := r.Window() >> (64 - 16); got != 0xbeef {
		t.Fatalf("Window after Skip = %04x", got)
	}
	// Top-up refill must keep Remaining exact and extend the window.
	rem := r.Remaining()
	r.Refill()
	if r.Remaining() != rem {
		t.Fatalf("Refill changed Remaining: %d -> %d", rem, r.Remaining())
	}
	if r.Buffered() < 57 {
		t.Fatalf("Buffered after top-up = %d, want >= 57", r.Buffered())
	}
	if got := r.Window() >> (64 - 56); got != 0xbeef0123456789 {
		t.Fatalf("Window after top-up = %014x", got)
	}
	// The end-of-stream refill stages every remaining bit.
	r.Skip(48)
	r.Refill()
	if r.Buffered() != 32 || r.Remaining() != 32 {
		t.Fatalf("tail: Buffered %d, Remaining %d, want 32", r.Buffered(), r.Remaining())
	}
	if got := r.Window() >> 32; got != 0x89abcdef {
		t.Fatalf("tail = %x, want 89abcdef", got)
	}
}
