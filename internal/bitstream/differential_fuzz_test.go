package bitstream

import (
	"bytes"
	"testing"
)

// FuzzReaderDifferential checks the decode loops' read pattern — Refill
// when Buffered runs short, take the top of Window, Skip — against the
// bit-at-a-time reference for any buffer and any schedule of widths
// (one program byte per read, 1..57 bits): every read must return the
// reference's bits with identical Remaining, the window's bits below its
// Buffered ones must be the stream's following bits or zeros, and a read
// must fall short exactly when the reference runs out.
func FuzzReaderDifferential(f *testing.F) {
	f.Add([]byte{}, []byte{0xff})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0xde, 0xad})
	// Exhaustion at every bit offset: wide reads against a short buffer.
	f.Add(bytes.Repeat([]byte{12}, 8), []byte{0xab, 0xcd, 0xef})
	f.Add(bytes.Repeat([]byte{56}, 4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, program, buf []byte) {
		r := NewReader(buf)
		ref := &refReader{buf: buf}
		for i, p := range program {
			width := uint(p%57) + 1
			if r.Buffered() < width {
				r.Refill()
			}
			if next := ref.next64(); r.Window()&^next != 0 {
				t.Fatalf("op %d: window %x disagrees with the stream's next bits %x", i, r.Window(), next)
			}
			if r.Buffered() < width {
				if r.Remaining() != ref.Remaining() || ref.Remaining() >= int(width) {
					t.Fatalf("op %d: %d-bit read falls short with %d bits left, reference %d", i, width, r.Remaining(), ref.Remaining())
				}
				if r.Buffered() != uint(r.Remaining()) {
					t.Fatalf("op %d: end-of-stream refill staged %d of %d bits", i, r.Buffered(), r.Remaining())
				}
				return
			}
			got := r.Window() >> (64 - width)
			r.Skip(width)
			want, err := ref.ReadBits(width)
			if err != nil || got != want {
				t.Fatalf("op %d (width %d): got %x, reference %x (%v)", i, width, got, want, err)
			}
			if r.Remaining() != ref.Remaining() {
				t.Fatalf("op %d: Remaining = %d, reference %d", i, r.Remaining(), ref.Remaining())
			}
		}
	})
}

// FuzzPeekConsume checks the four-lane form of the decode loops' peek
// (Window) and consume (Skip): four lanes cut from buf are read in
// lockstep, all refilled when one runs short, and every lane's window
// must match the reference reader's bits until the lane runs out.
func FuzzPeekConsume(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint(11))
	f.Add([]byte{1}, uint(13))
	f.Add([]byte{}, uint(1))
	f.Fuzz(func(t *testing.T, buf []byte, seed uint) {
		width := seed%57 + 1 // 1..57
		var quad [4]Reader
		var ref [4]refReader
		for l := range quad {
			lane := buf[len(buf)*l/4 : len(buf)*(l+1)/4]
			quad[l].Reset(lane)
			ref[l] = refReader{buf: lane}
		}
		for live := true; live; {
			if quad[0].Buffered() < width || quad[1].Buffered() < width ||
				quad[2].Buffered() < width || quad[3].Buffered() < width {
				for l := range quad {
					quad[l].Refill()
				}
			}
			live = false
			for l := range quad {
				q := &quad[l]
				if q.Buffered() < width {
					if ref[l].Remaining() >= int(width) {
						t.Fatalf("lane %d: %d-bit read falls short, reference has %d bits", l, width, ref[l].Remaining())
					}
					continue
				}
				got := q.Window() >> (64 - width)
				q.Skip(width)
				want, err := ref[l].ReadBits(width)
				if err != nil || got != want {
					t.Fatalf("lane %d: peek %x, reference %x (%v)", l, got, want, err)
				}
				live = true
			}
		}
	})
}
