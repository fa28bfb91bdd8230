package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// enode is a Huffman tree node in the arena-allocated encoder tree:
// children are arena indices, so the whole tree lives in one slice.
type enode struct {
	weight      int64
	symbol      int32 // leaf symbol; min subtree symbol on internal nodes
	left, right int32 // arena indices, -1 for leaves
}

// nodeLess orders the build heap: by weight, tie-broken on the minimum
// subtree symbol so construction is deterministic.
func nodeLess(nodes []enode, a, b int32) bool {
	if nodes[a].weight != nodes[b].weight {
		return nodes[a].weight < nodes[b].weight
	}
	return nodes[a].symbol < nodes[b].symbol
}

// heapPush adds arena index v to the index min-heap h.
func heapPush(h []int32, nodes []enode, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(nodes, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapPop removes and returns the minimum arena index from h.
func heapPop(h []int32, nodes []enode) ([]int32, int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && nodeLess(nodes, h[l], h[small]) {
			small = l
		}
		if r < len(h) && nodeLess(nodes, h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// heapBuildTable is the min-heap code build that buildTable's two-queue
// merge replaced, kept as FuzzBuildTableDifferential's reference: it
// counts syms, builds the tree on an index min-heap over a node arena,
// assigns leaf depths by an iterative depth-first walk, and appends the
// table header buildTable emits. It returns the header and the dense
// symbol→length table.
func heapBuildTable(dst []byte, syms []int32, maxSym int) ([]byte, []uint8, error) {
	freq := make([]int64, maxSym+1)
	for _, s := range syms {
		freq[s]++
	}
	var present []int32
	for s, f := range freq {
		if f != 0 {
			present = append(present, int32(s))
		}
	}
	nsym := len(present)

	lenOf := make([]uint8, maxSym+1)
	nodes := make([]enode, 0, 2*nsym)
	heap := make([]int32, 0, nsym)
	stack := make([]int64, 0, 2*nsym)
	switch nsym {
	case 0:
	case 1:
		lenOf[present[0]] = 1
	default:
		for _, s := range present {
			nodes = append(nodes, enode{weight: freq[s], symbol: s, left: -1, right: -1})
		}
		for i := range nodes {
			heap = heapPush(heap, nodes, int32(i))
		}
		for len(heap) > 1 {
			var a, b int32
			heap, a = heapPop(heap, nodes)
			heap, b = heapPop(heap, nodes)
			nodes = append(nodes, enode{
				weight: nodes[a].weight + nodes[b].weight,
				symbol: min(nodes[a].symbol, nodes[b].symbol),
				left:   a, right: b,
			})
			heap = heapPush(heap, nodes, int32(len(nodes)-1))
		}
		// Iterative depth-first walk assigning leaf depths; entries pack
		// (arena index << 8 | depth), depth ≤ maxCodeLen < 256.
		stack = append(stack, int64(heap[0])<<8)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			idx, depth := int32(top>>8), int(top&0xff)
			n := nodes[idx]
			if n.left < 0 {
				if depth > maxCodeLen {
					return nil, nil, fmt.Errorf("huffman: code length %d exceeds maximum %d", depth, maxCodeLen)
				}
				lenOf[n.symbol] = uint8(depth)
				continue
			}
			stack = append(stack, int64(n.left)<<8|int64(depth+1))
			stack = append(stack, int64(n.right)<<8|int64(depth+1))
		}
	}

	// Canonical order: by (length, symbol).
	slices.SortFunc(present, func(a, b int32) int {
		if lenOf[a] != lenOf[b] {
			return int(lenOf[a]) - int(lenOf[b])
		}
		return int(a - b)
	})
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	dst = binary.AppendUvarint(dst, uint64(nsym))
	for _, s := range present {
		dst = binary.AppendUvarint(dst, uint64(s))
		dst = binary.AppendUvarint(dst, uint64(lenOf[s]))
	}
	return dst, lenOf, nil
}

// countedSyms turns fuzz input into a symbol stream with a chosen count
// table. From base mod 2^20 (2^20 is the quantizer's capacity ceiling),
// each 3-byte entry of data (step, then a little-endian uint16 c)
// advances the symbol by step and appends c+1 copies of it; a step of 0
// adds to the same symbol's count. Symbols stay below 2^20 and the
// stream at or below 2^16 symbols, which still holds a 22-symbol
// Fibonacci chain (codes up to 21 bits).
func countedSyms(base uint32, data []byte) []int32 {
	var syms []int32
	s := int(base % (1 << 20))
	for ; len(data) >= 3; data = data[3:] {
		s += int(data[0])
		n := int(binary.LittleEndian.Uint16(data[1:])) + 1
		if s >= 1<<20 || len(syms)+n > 1<<16 {
			break
		}
		for range n {
			syms = append(syms, int32(s))
		}
	}
	return syms
}

// countEntries encodes counts as countedSyms entries of the given
// symbol step.
func countEntries(step byte, counts ...int) []byte {
	var data []byte
	for _, c := range counts {
		data = append(data, step, byte(c-1), byte((c-1)>>8))
	}
	return data
}

// FuzzBuildTableDifferential holds buildTable's two-queue merge to the
// heap build it replaced: for every count table, every present symbol's
// code length and the emitted table header must be identical. One
// scratch serves every input, so tables of every size and window also
// reuse each other's buffers, and an absent symbol's entry in the dense
// length table may hold what an earlier build left there: the emit
// loops read only present symbols.
func FuzzBuildTableDifferential(f *testing.F) {
	equal := make([]int, 37)
	for i := range equal {
		equal[i] = 5
	}
	fib := []int{1, 1}
	for len(fib) < 22 { // F(1)..F(22) sum to 46367, within the stream cap
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), countEntries(1, equal...))            // all-equal counts
	f.Add(uint32(3), countEntries(2, equal[:32]...))       // a full tree of equal leaves
	f.Add(uint32(0), countEntries(1, 1, 1, 2, 2))          // an internal node ties a leaf and goes first
	f.Add(uint32(0), countEntries(1, 2, 1, 1))             // a leaf ties an internal node and goes first
	f.Add(uint32(0), countEntries(1, 3, 1, 1, 1, 1, 2, 2)) // ties between internal nodes and leaves
	f.Add(uint32(0), countEntries(1, fib...))              // Fibonacci chain, deepest codes first
	slices.Reverse(fib)
	f.Add(uint32(100), countEntries(7, fib...)) // the chain, counts falling as symbols rise
	f.Add(uint32(42), countEntries(0, 9))       // one symbol
	f.Add(uint32(42), countEntries(5, 9, 9))    // two symbols
	f.Add(uint32(1<<20-40), countEntries(3, 4, 4, 1, 2, 7, 4, 1, 1, 3, 2))
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, base uint32, data []byte) {
		syms := countedSyms(base, data)
		maxSym := maxSymOf(syms)
		want, wantLens, wantErr := heapBuildTable(nil, syms, maxSym)
		got, gotLens, _, _, err := buildTable(nil, syms, maxSym, sc)
		if err != nil || wantErr != nil {
			t.Fatalf("build errors: two-queue %v, heap %v", err, wantErr)
		}
		for s, l := range wantLens {
			if l != 0 && gotLens[s] != l {
				t.Fatalf("symbol %d: two-queue length %d, heap length %d", s, gotLens[s], wantLens[s])
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("table header differs:\n got %x\nwant %x", got, want)
		}
	})
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
