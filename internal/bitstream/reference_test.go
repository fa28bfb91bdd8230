package bitstream

// The bit-at-a-time Reader this package shipped before the word-at-a-time
// rewrite, retained as the differential-testing oracle: the tests and
// fuzzers require every window the optimized Reader stages to hold
// exactly the bits this reader returns, at every bit offset up to the
// end of the stream.

// refReader is the original bit-at-a-time Reader.
type refReader struct {
	buf []byte
	pos int
	cur uint
}

func (r *refReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	b := (r.buf[r.pos] >> (7 - r.cur)) & 1
	r.cur++
	if r.cur == 8 {
		r.cur = 0
		r.pos++
	}
	return uint(b), nil
}

func (r *refReader) ReadBits(width uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) Remaining() int {
	return (len(r.buf)-r.pos)*8 - int(r.cur)
}

// next64 returns the next 64 bits of the stream, MSB-aligned and
// zero-padded past its end, without consuming them.
func (r refReader) next64() uint64 {
	n := min(64, r.Remaining())
	v, _ := r.ReadBits(uint(n))
	return v << (64 - n)
}
