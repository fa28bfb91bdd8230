// Package huffman implements the customized Huffman coding stage of the SZ
// pipeline: a canonical Huffman coder over integer symbols (quantization
// codes). The encoder builds the code from symbol frequencies, emits a
// compact table (code lengths only) followed by the packed bit streams, and
// the decoder reconstructs the canonical code from the lengths.
//
// EncodeLanes4 is the only encoder: it splits the symbols into four
// interleaved lanes under one shared table, and DecodeLanes4Into reverses
// it. DecodeInto reads the older single-stream layout and serves legacy
// chunk payloads only; nothing writes that layout any more.
//
// DecodeLanes4Into runs two decode paths. A complete code of at most 24
// bits with fewer than 2^24 symbols — every table the encoder writes for
// two or more symbols, in practice — gets a two-level table, a 12-bit
// first level and a subtable for each 12-bit prefix that longer codes
// extend (at most 2^16 subtable entries in all), and the lane loop
// (kernels.DecodeLanes4) decodes the lanes through it with every lane's
// window in a register. A one-symbol code whose lanes hold only its
// zero bits decodes as a fill. The checked path finishes every lane, and
// decodes every other stream (an incomplete or oversubscribed code, codes
// over 24 bits, subtables past the cap, a corrupt one-symbol stream)
// from the start: the one-level 12-bit table, then the canonical
// per-length walk for longer codes, with every symbol's bits checked
// against its lane's end.
//
// Symbols are non-negative int32s — the quantization-code element type,
// which halves the memory traffic of the counting and emit passes over
// multi-megapoint symbol slices compared to machine-word ints. Typical
// alphabets are the 2n quantization codes of the SZ quantizer (tens of
// thousands of possible symbols of which a few hundred occur).
package huffman

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"fixedpsnr/internal/bitstream"
	"fixedpsnr/internal/kernels"
)

// maxCodeLen caps canonical code lengths at 57 bits, the window one
// bitstream refill guarantees, so every code resolves from a single
// refilled window and the emit loop's accumulator never overflows. The
// cap rejects nothing a real encoder can write: a Huffman code of depth d
// needs a total count of at least the Fibonacci number F(d+2), so a code
// deeper than 57 bits needs more than 10^12 symbols (F(60) ≈ 1.5·10^12)
// in one block.
const maxCodeLen = 57

// Scratch holds the Huffman encoder's construction state — frequency
// table, present-symbol list, the merge's leaf order (then the canonical
// order), node weights and parent links, and the symbol→length/code
// tables — sized by the symbol alphabet, so sessions that encode many
// chunks reuse one set instead of reallocating them every call. A nil
// *Scratch is valid and falls back to fresh allocation. Scratch is not
// safe for concurrent use; pool instances and hand one to each in-flight
// encode.
type Scratch struct {
	freq    []int64
	present []int32
	order   []int32
	weight  []int64
	minSym  []int32
	parent  []int32
	lenOf   []uint8
	codes   []uint64
}

// NewScratch returns an empty Huffman scratch.
func NewScratch() *Scratch { return &Scratch{} }

// grow reslices *buf to n elements, reallocating it when its capacity is
// short, and returns it. The contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// tableBits is the width of the checked path's one-level lookup table
// and of the lane loop's first level. In the one-level table, the next
// tableBits peeked bits resolve (canonical index, code length) for every
// code no longer than tableBits in a single load. Canonical order sorts
// short codes first, so at most 1<<tableBits of them exist and their
// canonical indices fit 12 bits — one uint16 entry packs idx<<4 | length,
// and the table is 8 KB. Longer codes (common at the 90 dB end of the
// fixed-PSNR range, where about 12% of the codes exceed 12 bits) resolve
// from the reader's refilled 64-bit window by the canonical per-length
// walk, longSym. Their entries have length field 0 and hold, in the
// index field, the shortest code length under that 12-bit prefix, where
// the walk starts. The lane loop's two-level table (buildLaneTable)
// resolves a long code with one more load, from the subtable its prefix
// links to, so only the checked path and DecodeInto walk.
const tableBits = 12

// DecodeScratch holds the Huffman decoder's reusable state — the lookup
// table, the canonical symbol/length slices, and the per-length canonical
// tables — so sessions that decode many chunks stop rebuilding map-backed
// tables from the heap every call. A nil *DecodeScratch is valid and falls
// back to fresh allocation. Not safe for concurrent use; pool instances
// and hand one to each in-flight decode.
type DecodeScratch struct {
	syms []int32  // symbols in canonical order (by length, then symbol)
	lens []uint8  // parallel code lengths
	dup  []int32  // duplicate check: sorted copy of a wide-window table
	seen []uint64 // duplicate check: bitmap over the symbol window

	table     [1 << tableBits]uint16 // peek pattern → idx<<4 | len; len 0: long, walk from idx
	firstCode [maxCodeLen + 2]uint64
	firstSym  [maxCodeLen + 2]int32
	countAt   [maxCodeLen + 2]int32

	tab []uint32              // the lane loop's two-level table
	sub [1 << tableBits]uint8 // its build: each prefix's longest code
	ld  kernels.LaneDecode    // the lane loop's state

	r     bitstream.Reader
	lanes [4]bitstream.Reader // four-lane checked readers (DecodeLanes4Into)
}

// NewDecodeScratch returns an empty Huffman decode scratch.
func NewDecodeScratch() *DecodeScratch { return &DecodeScratch{} }

// canonicalSorter orders parallel (symbol, length) slices by (length,
// symbol) — the canonical code order. Only corrupt or foreign streams
// need it: this package's encoder already emits the table sorted.
type canonicalSorter struct {
	syms []int32
	lens []uint8
}

func (c *canonicalSorter) Len() int { return len(c.syms) }
func (c *canonicalSorter) Less(i, j int) bool {
	if c.lens[i] != c.lens[j] {
		return c.lens[i] < c.lens[j]
	}
	return c.syms[i] < c.syms[j]
}
func (c *canonicalSorter) Swap(i, j int) {
	c.syms[i], c.syms[j] = c.syms[j], c.syms[i]
	c.lens[i], c.lens[j] = c.lens[j], c.lens[i]
}

// buildTable counts syms, builds the canonical code, and appends the
// self-describing table header — uvarint(len(syms)), uvarint(nsym), then
// the (symbol, length) pairs in canonical order — to dst. It returns the
// dense symbol→length and symbol→code tables the emit loops index, both
// scratch-owned (valid until the next build with the same sc) and
// written only at present symbols, and the exact bit size of each
// four-lane body. A nil sc allocates fresh.
func buildTable(dst []byte, syms []int32, maxSym int, sc *Scratch) (out []byte, lenOf []uint8, codes []uint64, laneBits [4]int64, err error) {
	if sc == nil {
		sc = &Scratch{}
	}
	// Count into four interleaved lanes (kernels.CountLanes4): runs of
	// one dominant symbol (the common case for quantization codes)
	// otherwise serialize on store-to-load forwarding of a single
	// counter. The lane assignment (position i into lane i mod 4) is the
	// same assignment EncodeLanes4 splits the payload by, so lane i's
	// counts are exactly lane i's symbol frequencies; only the summed
	// totals feed the shared table, which is what keeps one canonical
	// code valid for all four lane bitstreams. The lane-summing pass
	// also rebuilds the present list, replacing the per-symbol branch.
	//
	// The lanes are indexed by symbol up to maxSym, but a symbol can
	// only be the literal marker 0 or lie in the code window
	// (kernels.CodeWindow), a few hundred codes where the capacity is
	// tens of thousands. So only counter 0 and the window are cleared,
	// counted and summed; whatever earlier builds left elsewhere in the
	// lanes is never read.
	m := maxSym + 1
	lanes := grow(&sc.freq, 4*m)
	lane0, lane1 := lanes[:m], lanes[m:2*m]
	lane2, lane3 := lanes[2*m:3*m], lanes[3*m:]
	lo, hi := kernels.CodeWindow(syms)
	if lo == 0 { // no nonzero code: an empty window
		hi = -1
	}
	spans := [2][2]int{{0, min(1, m)}, {int(lo), int(hi) + 1}}
	for _, sp := range spans {
		clear(lane0[sp[0]:sp[1]])
		clear(lane1[sp[0]:sp[1]])
		clear(lane2[sp[0]:sp[1]])
		clear(lane3[sp[0]:sp[1]])
	}
	kernels.CountLanes4(lane0, lane1, lane2, lane3, syms)
	freq := lane0
	present := sc.present[:0]
	for _, sp := range spans {
		w0, w1 := lane0[sp[0]:sp[1]], lane1[sp[0]:sp[1]]
		w2, w3 := lane2[sp[0]:sp[1]], lane3[sp[0]:sp[1]]
		for i, f := range w0 {
			f += w1[i] + w2[i] + w3[i]
			if f != 0 {
				w0[i] = f
				present = append(present, int32(sp[0]+i))
			}
		}
	}
	sc.present = present
	nsym := len(present)

	// Code lengths per symbol: a dense table the emit loops index, of
	// which only the present symbols' entries are written (and read).
	lenOf = grow(&sc.lenOf, m)
	canon := present // the symbols in canonical (length, symbol) order
	switch nsym {
	case 0:
		// Empty input: emit the trivial header below.
	case 1:
		lenOf[present[0]] = 1
	default:
		// Two-queue merge: nodes 0..nsym-1 are the leaves sorted by
		// (count, symbol), nodes nsym.. the internal nodes in creation
		// order, and each step joins two nodes, taking each time the
		// smaller queue front under (weight, minimum subtree symbol).
		// Both queues ascend in that order: an internal node outweighs
		// each child, as every count is ≥ 1, and internal nodes of
		// equal weight come from equal-weight pairs taken in symbol
		// order. So each step takes the nodes a min-heap on that order
		// would pop, and the code lengths are the heap build's.
		// deflate's buildLens breaks ties leaf-first instead, which
		// would move these lengths. The leaves are sorted in a copy:
		// present stays ascending for the canonical order below.
		leaves := grow(&sc.order, nsym)
		copy(leaves, present)
		slices.SortFunc(leaves, func(a, b int32) int {
			if freq[a] != freq[b] {
				return cmp.Compare(freq[a], freq[b])
			}
			return int(a - b)
		})
		nodes := 2*nsym - 1
		weight := grow(&sc.weight, nodes)
		minSym := grow(&sc.minSym, nodes)
		parent := grow(&sc.parent, nodes)
		for i, s := range leaves {
			weight[i], minSym[i] = freq[s], s
		}
		leaf, inner := 0, nsym
		for next := nsym; next < nodes; next++ {
			var pick [2]int
			for k := range pick {
				if leaf < nsym && (inner == next || weight[leaf] < weight[inner] ||
					weight[leaf] == weight[inner] && minSym[leaf] < minSym[inner]) {
					pick[k], leaf = leaf, leaf+1
				} else {
					pick[k], inner = inner, inner+1
				}
			}
			a, b := pick[0], pick[1]
			weight[next] = weight[a] + weight[b]
			minSym[next] = min(minSym[a], minSym[b])
			parent[a], parent[b] = int32(next), int32(next)
		}
		// Depths flow root-down, each overwriting its node's parent link:
		// a parent is created after its children, so depth[p] is already
		// set when node i reads it.
		depth := parent
		depth[nodes-1] = 0
		for i := nodes - 2; i >= 0; i-- {
			depth[i] = depth[parent[i]] + 1
		}
		for i, s := range leaves {
			if depth[i] > maxCodeLen {
				return nil, nil, nil, laneBits, fmt.Errorf("huffman: code length %d exceeds maximum %d", depth[i], maxCodeLen)
			}
			lenOf[s] = uint8(depth[i])
		}
		// Canonical order is a counting sort by length: present is
		// ascending, so each length's symbols land in ascending order.
		// The merge is done with the leaves, so their slice takes it.
		var next [maxCodeLen + 1]int32
		for _, s := range present {
			next[lenOf[s]]++
		}
		at := int32(0)
		for l, c := range next {
			next[l] = at
			at += c
		}
		for _, s := range present {
			l := lenOf[s]
			leaves[next[l]] = s
			next[l]++
		}
		canon = leaves
	}

	codes = grow(&sc.codes, m)
	var code uint64
	prevLen := uint8(0)
	for _, s := range canon {
		l := lenOf[s]
		code <<= uint(l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}

	// Lane bits are Σ count·length over each lane's own counts. The lane
	// sum above overwrote lane 0 with the totals, so lane 0 is the total
	// minus lanes 1–3.
	var total int64
	for _, s := range present {
		l := int64(lenOf[s])
		total += freq[s] * l
		laneBits[1] += lane1[s] * l
		laneBits[2] += lane2[s] * l
		laneBits[3] += lane3[s] * l
	}
	laneBits[0] = total - laneBits[1] - laneBits[2] - laneBits[3]

	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	dst = binary.AppendUvarint(dst, uint64(nsym))
	for _, s := range canon {
		dst = binary.AppendUvarint(dst, uint64(s))
		dst = binary.AppendUvarint(dst, uint64(lenOf[s]))
	}
	return dst, lenOf, codes, laneBits, nil
}

// emitLane packs the code words of syms[0], syms[4], syms[8], … — one
// lane of the four-lane split — MSB-first into out, which must hold the
// lane's bytes plus 8. The bits stay in a register accumulator: after
// each pair of symbols every staged bit is stored left-aligned as one
// big-endian 8-byte word at the first unfinished byte, and the cursor
// advances past the finished bytes, so the flush has no branch and the
// unfinished bits are rewritten by the next store. At most 7 bits stay
// staged between stores, so a pair of codes fits the 64-bit accumulator
// whenever the two total at most maxCodeLen = 57 bits; a wider pair
// (two codes of 29+ bits) stores its first code alone. The final partial
// byte is zero-padded. It is kept out of line: inlined into
// EncodeLanes4, the accumulator, bit count and cursor spill to the stack
// and every symbol waits on store-to-load round trips.
//
//go:noinline
func emitLane(out []byte, syms []int32, lenOf []uint8, codes []uint64) {
	// Equal lengths let one bounds check cover both table lookups.
	codes = codes[:len(lenOf)]
	var acc uint64 // staged bits, right-aligned; only the low nb are live
	var nb uint
	p := 0
	i := 0
	for ; i+4 < len(syms); i += 8 {
		s0, s1 := syms[i], syms[i+4]
		l0, l1 := uint(lenOf[s0]), uint(lenOf[s1])
		c0 := codes[s0]
		if l0+l1 > maxCodeLen {
			// The pair would overflow the accumulator: store the first
			// code on its own.
			acc = acc<<(l0&63) | c0
			nb += l0
			binary.BigEndian.PutUint64(out[p:p+8], acc<<((64-nb)&63))
			p += int(nb >> 3)
			nb &= 7
			l0, c0 = 0, 0
		}
		acc = (acc<<(l0&63)|c0)<<(l1&63) | codes[s1]
		nb += l0 + l1
		binary.BigEndian.PutUint64(out[p:p+8], acc<<((64-nb)&63))
		p += int(nb >> 3)
		nb &= 7
	}
	if i < len(syms) {
		s := syms[i]
		l := uint(lenOf[s])
		acc = acc<<(l&63) | codes[s]
		nb += l
		binary.BigEndian.PutUint64(out[p:p+8], acc<<((64-nb)&63))
	}
}

// EncodeLanes4 appends the four-lane interleaved encoding of syms to dst:
// the canonical table header (built over all symbols, shared by every
// lane), then the four lane body byte lengths as
// uvarints, then the four packed lane bitstreams back to back. Lane i
// carries symbols i, i+4, i+8, … — the CountLanes4 assignment — each as
// an independent bitstream, so DecodeLanes4Into can keep four symbol
// resolutions in flight instead of serializing on one peek→consume
// chain.
//
// The table build already counts each lane's symbols, so every lane
// body's exact size is known before any bit is written: the lane lengths
// go out first, and each lane then emits straight into its slot in dst
// (emitLane), reading its symbols at stride 4 — no staged
// kernels.LaneSplit4 scatter, no per-lane writer buffers and no body
// copies. The bytes are identical to splitting first and emitting each
// lane slice on its own; the differential test against that
// kernels.LaneSplit4 reference pins the equivalence. The emit may write
// up to 8 bytes past the returned slice's length, within its capacity.
//
// Every symbol must lie in [0, maxSym] — callers pass a bound they know
// by construction (a quantizer's capacity−1), which skips a validation
// pass over the symbols; one outside that range panics (slice bounds)
// rather than returning an error. The emitted table covers only symbols
// that occur, so an over-estimated bound costs scratch memory, not
// stream bytes, and not time either: maxSym sizes sc's symbol-indexed
// tables, but the table build clears, counts and sums only code 0 and
// the code window (kernels.CodeWindow, smallest nonzero code to largest
// code), and writes lengths and codes for present symbols only. A nil sc
// allocates fresh; the encoded bytes are identical whatever sc is.
func EncodeLanes4(dst []byte, syms []int32, maxSym int, sc *Scratch) ([]byte, error) {
	dst, lenOf, codes, laneBits, err := buildTable(dst, syms, maxSym, sc)
	if err != nil {
		return nil, err
	}
	var laneLen [4]int
	total := 0
	for lane, bits := range laneBits {
		laneLen[lane] = int((bits + 7) / 8)
		total += laneLen[lane]
		dst = binary.AppendUvarint(dst, uint64(laneLen[lane]))
	}
	// Lanes emit in order: a lane's last stores spill up to 8 bytes into
	// the next lane's slot, which that lane then overwrites, and lane 3's
	// spill lands in the 8 bytes of slack past the end.
	start := len(dst)
	dst = slices.Grow(dst, total+8)
	body := dst[start : start+total+8]
	for lane := range min(4, len(syms)) {
		emitLane(body, syms[lane:], lenOf, codes)
		body = body[laneLen[lane]:]
	}
	return dst[:start+total], nil
}

// parseTable reads the leading symbol count and canonical (symbol,
// length) table shared by the single-stream and four-lane formats,
// returning the canonical slices, owned by ds until its next parse, and
// the bytes consumed. A declared code length above maxCodeLen = 57 bits
// is an error, so the decoders resolve every code from one refilled
// window. The cap rejects nothing a real encoder can write: a Huffman
// code deeper than 57 bits needs more than 10^12 symbols in one block.
func parseTable(buf []byte, ds *DecodeScratch) (n uint64, csyms []int32, clens []uint8, consumed int, err error) {
	rd := buf
	n, k := binary.Uvarint(rd)
	if k <= 0 {
		return 0, nil, nil, 0, fmt.Errorf("huffman: truncated symbol count")
	}
	rd = rd[k:]
	consumed += k
	nsym, k := binary.Uvarint(rd)
	if k <= 0 {
		return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table size")
	}
	rd = rd[k:]
	consumed += k
	if nsym > uint64(len(rd)) {
		// Each table entry takes ≥ 2 bytes; reject the count before
		// sizing buffers from it.
		return 0, nil, nil, 0, fmt.Errorf("huffman: table size %d exceeds buffer", nsym)
	}

	csyms, clens = grow(&ds.syms, int(nsym)), grow(&ds.lens, int(nsym))
	sorted := true
	prevLen, prevSym := uint8(0), -1
	for i := range csyms {
		s, k1 := binary.Uvarint(rd)
		if k1 <= 0 {
			return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table entry")
		}
		rd = rd[k1:]
		consumed += k1
		l, k2 := binary.Uvarint(rd)
		if k2 <= 0 {
			return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table entry length")
		}
		rd = rd[k2:]
		consumed += k2
		if l == 0 || l > maxCodeLen {
			return 0, nil, nil, 0, fmt.Errorf("huffman: invalid code length %d", l)
		}
		if s > 1<<31-1 {
			return 0, nil, nil, 0, fmt.Errorf("huffman: symbol %d out of range", s)
		}
		if uint8(l) < prevLen || (uint8(l) == prevLen && int(s) <= prevSym) {
			sorted = false
		}
		prevLen, prevSym = uint8(l), int(s)
		csyms[i], clens[i] = int32(s), uint8(l)
	}
	// This package's encoder emits the table in canonical (length, symbol)
	// order, so the sort below never runs on its own streams; foreign or
	// mutated tables are normalized the slow way.
	if !sorted {
		sort.Sort(&canonicalSorter{syms: csyms, lens: clens})
	}
	// Duplicate symbols would make the code ambiguous; the canonical sort
	// does not make equal symbols with different lengths adjacent.
	if ds.hasDuplicates(csyms) {
		return 0, nil, nil, 0, fmt.Errorf("huffman: duplicate symbols in table")
	}
	return n, csyms, clens, consumed, nil
}

// dupWindowBits caps hasDuplicates' bitmap at this many bits per table
// entry: 32 bits are the 4 bytes per entry of the sorted copy it falls
// back to, so no table makes the check allocate more than that copy.
const dupWindowBits = 32

// hasDuplicates reports whether csyms holds a symbol twice. It marks each
// nonzero symbol in a bitmap over their window [lo, hi], which
// kernels.CodeWindow finds as it does for the encoder's table build,
// and counts symbol 0 on its own: 0 is the literal marker, which most
// chunks' tables carry, and would otherwise stretch the window from 0
// to the codes around the interval radius. A window wider than
// dupWindowBits per entry — a sparse or hostile table — sorts a copy
// instead.
func (ds *DecodeScratch) hasDuplicates(csyms []int32) bool {
	if kernels.CountZeros(csyms) > 1 {
		return true
	}
	lo, hi := kernels.CodeWindow(csyms)
	if lo == 0 { // no nonzero symbol
		return false
	}
	width := uint64(hi-lo) + 1
	if width > dupWindowBits*uint64(len(csyms)) {
		dup := grow(&ds.dup, len(csyms))
		copy(dup, csyms)
		slices.Sort(dup)
		for i := 1; i < len(dup); i++ {
			if dup[i] == dup[i-1] {
				return true
			}
		}
		return false
	}
	seen := grow(&ds.seen, int((width+63)/64))
	clear(seen)
	for _, s := range csyms {
		if s == 0 {
			continue
		}
		b := uint32(s - lo)
		w, m := b/64, uint64(1)<<(b%64)
		if seen[w]&m != 0 {
			return true
		}
		seen[w] |= m
	}
	return false
}

// prepareTables builds the decoding tables for the canonical code
// csyms/clens describe: the per-length first-code/first-symbol tables and
// the one-level lookup table.
func (ds *DecodeScratch) prepareTables(csyms []int32, clens []uint8) {
	// Canonical decoding tables: for each length, the first code word and
	// the index of its first symbol in the canonical order.
	firstCode := &ds.firstCode
	firstSym := &ds.firstSym
	countAt := &ds.countAt
	clear(countAt[:])
	for _, l := range clens {
		countAt[l]++
	}
	var code uint64
	var idx int32
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstSym[l] = idx
		code = (code + uint64(countAt[l])) << 1
		idx += countAt[l]
	}

	// One-level lookup table: every code of length ≤ tableBits owns all
	// 1<<(tableBits-len) patterns it prefixes. Canonical order puts short
	// codes first, so their indices fit the packed uint16.
	table := &ds.table
	clear(table[:])
	code = 0
	prev := uint8(0)
	long := len(clens)
	for i, l := range clens {
		if uint(l) > tableBits {
			long = i
			break
		}
		code <<= uint(l - prev)
		prev = l
		lo := code << (tableBits - uint(l))
		hi := lo + 1<<(tableBits-uint(l))
		if lo >= uint64(len(table)) {
			break // oversubscribed (corrupt) table; longSym still guards
		}
		if hi > uint64(len(table)) {
			hi = uint64(len(table))
		}
		e := uint16(i)<<4 | uint16(l)
		for j := lo; j < hi; j++ {
			table[j] = e
		}
		code++
	}
	// Long codes: the entry of each prefix they extend records the
	// shortest long length under it — canonical order meets that code
	// first — so the walk starts there. A prefix no code extends keeps
	// entry 0, and its walk matches nothing.
	for _, l := range clens[long:] {
		code <<= uint(l - prev)
		prev = l
		if p := code >> (uint(l) - tableBits); p < uint64(len(table)) && table[p] == 0 {
			table[p] = uint16(l) << 4
		}
		code++
	}
}

// errCodeTooLong reports window bits that match no canonical code of at
// most maxCodeLen bits: only a corrupt table or body produces it.
var errCodeTooLong = fmt.Errorf("huffman: code longer than %d bits", maxCodeLen)

// longSym decodes one code longer than tableBits from r, whose table
// entry e has length field 0. One refill stages ≥ maxCodeLen bits (or
// the rest of the stream), and the canonical per-length walk finds the
// code in that window: from the length e records up, the first length
// whose leading window bits fall inside that length's run of canonical
// codes. Each length costs a shift and a compare, and the index stays
// below len(csyms) even on corrupt tables, because firstSym[l] +
// countAt[l] never exceeds the table size. It returns
// bitstream.ErrOutOfBits when the code runs past the end of the stream.
func (ds *DecodeScratch) longSym(r *bitstream.Reader, e uint16, csyms []int32) (int32, error) {
	r.Refill()
	w := r.Window()
	for l := max(uint(e>>4), tableBits+1); l <= maxCodeLen; l++ {
		if d := w>>(64-l) - ds.firstCode[l]; d < uint64(ds.countAt[l]) {
			if l > r.Buffered() {
				return 0, bitstream.ErrOutOfBits
			}
			r.Skip(l)
			return csyms[ds.firstSym[l]+int32(d)], nil
		}
	}
	return 0, errCodeTooLong
}

// decodeSym resolves one symbol from r through the prepared tables: a
// single-load table hit on short codes, longSym on long ones. It is the
// checked path the four-lane decoder finishes each lane with, and
// decodes every symbol of a table the lane loop cannot take; DecodeInto
// inlines the table hit itself. Returns bitstream.ErrOutOfBits on
// exhaustion.
func (ds *DecodeScratch) decodeSym(r *bitstream.Reader, csyms []int32) (int32, error) {
	if r.Buffered() < tableBits {
		r.Refill()
	}
	e := ds.table[r.Window()>>(64-tableBits)]
	if e&0xf != 0 {
		l := uint(e & 0xf)
		if l > r.Buffered() {
			return 0, bitstream.ErrOutOfBits
		}
		r.Skip(l)
		return csyms[e>>4], nil
	}
	return ds.longSym(r, e, csyms)
}

// DecodeInto decodes one single-stream block — the canonical table, a
// uvarint body length, and the packed code words — the layout of legacy
// chunk payloads. It returns the symbols and the number of bytes
// consumed from buf, so the block can sit inside a larger stream. The
// symbols are appended into dst[:0] (grown as needed), and every decoding
// table — the one-level lookup table, the canonical symbol/length slices,
// the per-length canonical tables, and the bit reader — comes from ds, so
// repeated decodes (one per chunk, in a long-lived session) stop
// rebuilding them from the heap. Nil dst and/or ds allocate fresh. The
// decoded symbols are identical whatever dst and ds are.
func DecodeInto(dst []int32, buf []byte, ds *DecodeScratch) (syms []int32, consumed int, err error) {
	if ds == nil {
		ds = &DecodeScratch{}
	}
	n, csyms, clens, consumed, err := parseTable(buf, ds)
	if err != nil {
		return nil, 0, err
	}
	rd := buf[consumed:]

	bodyLen, k := binary.Uvarint(rd)
	if k <= 0 {
		return nil, 0, fmt.Errorf("huffman: truncated body length")
	}
	rd = rd[k:]
	consumed += k
	if uint64(len(rd)) < bodyLen {
		return nil, 0, fmt.Errorf("huffman: body shorter than declared (%d < %d)", len(rd), bodyLen)
	}
	body := rd[:bodyLen]
	consumed += int(bodyLen)

	if n == 0 {
		if dst != nil {
			return dst[:0], consumed, nil
		}
		return []int32{}, consumed, nil
	}
	if len(csyms) == 0 {
		return nil, 0, fmt.Errorf("huffman: %d symbols declared but table is empty", n)
	}
	// Every symbol costs at least one bit, so a corrupt count larger
	// than the body could hold must be rejected before allocation.
	if n > bodyLen*8 {
		return nil, 0, fmt.Errorf("huffman: %d symbols cannot fit in %d body bytes", n, bodyLen)
	}

	ds.prepareTables(csyms, clens)
	table := &ds.table

	r := &ds.r
	r.Reset(body)
	if uint64(cap(dst)) < n {
		dst = make([]int32, n)
	}
	out := dst[:n]
	// The hot loop refills the reader's 64-bit window once per symbol at
	// most, resolves short codes with a single table load, and consumes
	// their bits with an unchecked Skip — no per-bit calls, no double
	// refill check from a Peek/Consume pair. Long codes resolve from the
	// refilled window (longSym).
	for pos := range out {
		if r.Buffered() < tableBits {
			r.Refill()
		}
		e := table[r.Window()>>(64-tableBits)]
		if e&0xf != 0 {
			l := uint(e & 0xf)
			if l > r.Buffered() {
				return nil, 0, fmt.Errorf("huffman: bit stream exhausted after %d of %d symbols", pos, n)
			}
			r.Skip(l)
			out[pos] = csyms[e>>4]
			continue
		}
		s, err := ds.longSym(r, e, csyms)
		if err == bitstream.ErrOutOfBits {
			return nil, 0, fmt.Errorf("huffman: bit stream exhausted after %d of %d symbols", pos, n)
		}
		if err != nil {
			return nil, 0, err
		}
		out[pos] = s
	}
	return out, consumed, nil
}

// DecodeLanes4Into reverses EncodeLanes4, appending the symbols into
// dst[:0] (grown as needed). The four lane bitstreams are independent,
// so the lane loop (laneLoop) resolves four symbols at a time whose
// table loads carry no data dependency on each other: the peek→consume
// chain that serializes single-stream decode runs four-wide. Each lane's
// last symbols, and every symbol of a table the loop cannot take, decode
// on the checked path (decodeSym), except that a one-symbol stream whose
// lanes hold only its zero bits is a fill. Nil dst and/or ds allocate
// fresh; the decoded symbols are identical to DecodeInto over the
// equivalent single-stream encoding.
func DecodeLanes4Into(dst []int32, buf []byte, ds *DecodeScratch) (syms []int32, consumed int, err error) {
	if ds == nil {
		ds = &DecodeScratch{}
	}
	n, csyms, clens, consumed, err := parseTable(buf, ds)
	if err != nil {
		return nil, 0, err
	}
	rd := buf[consumed:]

	var laneLen [4]int
	total := 0
	for i := range laneLen {
		l, k := binary.Uvarint(rd)
		if k <= 0 {
			return nil, 0, fmt.Errorf("huffman: truncated lane %d length", i)
		}
		rd = rd[k:]
		consumed += k
		if l > uint64(len(rd)) {
			return nil, 0, fmt.Errorf("huffman: lane %d body shorter than declared (%d < %d)", i, len(rd), l)
		}
		laneLen[i] = int(l)
		total += int(l)
	}
	if total > len(rd) {
		return nil, 0, fmt.Errorf("huffman: lane bodies shorter than declared (%d < %d)", len(rd), total)
	}
	var body [4][]byte
	off := 0
	for i := range body {
		body[i] = rd[off : off+laneLen[i]]
		off += laneLen[i]
	}
	consumed += total

	if n == 0 {
		if dst != nil {
			return dst[:0], consumed, nil
		}
		return []int32{}, consumed, nil
	}
	if len(csyms) == 0 {
		return nil, 0, fmt.Errorf("huffman: %d symbols declared but table is empty", n)
	}
	// Every symbol costs at least one bit in its lane; reject corrupt
	// counts before allocation, per lane so no lane can overrun its own
	// stream into a neighbor's bytes.
	if n > uint64(total)*8 {
		return nil, 0, fmt.Errorf("huffman: %d symbols cannot fit in %d lane body bytes", n, total)
	}
	c0, c1, c2, c3 := kernels.LaneLens4(int(n))
	counts := [4]int{c0, c1, c2, c3}
	for i, c := range counts {
		if c > laneLen[i]*8 {
			return nil, 0, fmt.Errorf("huffman: lane %d: %d symbols cannot fit in %d body bytes", i, c, laneLen[i])
		}
	}

	if uint64(cap(dst)) < n {
		dst = make([]int32, n)
	}
	out := dst[:n]
	// A one-symbol code (a smooth chunk at low PSNR) spends clens[0] zero
	// bits per symbol. When every lane holds just those, the decode is a
	// fill; any other lane goes to the checked path, which reports it.
	if len(csyms) == 1 && zeroLanes(body, counts, int(clens[0])) {
		fill(out, csyms[0])
		return out, consumed, nil
	}
	ds.prepareTables(csyms, clens)
	// The lane loop decodes while every lane has bytes to spare, then
	// hands each lane's bit position to the checked remainder: the final
	// symbols, with full guards, one at a time, so a truncated or corrupt
	// lane fails here, at the same symbol and with the same error as a
	// decode that checked every symbol. Symbol pos sits on lane pos mod
	// 4, matching LaneSplit4.
	pos, bit := ds.laneLoop(out, rd[:total], laneLen, csyms, clens)
	for lane := range ds.lanes {
		r := &ds.lanes[lane]
		r.Reset(body[lane][bit[lane]>>3:])
		if b := uint(bit[lane] & 7); b != 0 {
			r.Refill()
			r.Skip(b)
		}
	}
	for ; pos < int(n); pos++ {
		s, err := ds.decodeSym(&ds.lanes[pos&3], csyms)
		if err != nil {
			return nil, 0, laneErr(err, pos, n)
		}
		out[pos] = s
	}
	return out, consumed, nil
}

// zeroLanes reports whether the first counts[lane]·width bits of each
// lane body are zeros: every symbol of the lane under a one-symbol code
// of width bits.
func zeroLanes(body [4][]byte, counts [4]int, width int) bool {
	for lane, c := range counts {
		b := body[lane]
		if c > len(b)*8/width {
			return false
		}
		nb := c * width
		for _, x := range b[:nb/8] {
			if x != 0 {
				return false
			}
		}
		if r := nb % 8; r != 0 && b[nb/8]>>(8-r) != 0 {
			return false
		}
	}
	return true
}

// laneLoop decodes the leading symbols of out through the lane loop
// (kernels.DecodeLanes4) and returns how many it decoded and each lane's
// bit position in its body. bodies holds the four lane bodies back to
// back, laneLen[i] bytes each. One iteration of the loop moves a lane at
// most 7 bytes, and its reload reads 8, so a call runs only as many
// iterations as keep every lane's loads inside that lane's own body;
// laneLoop calls again while that is at least one. A table the loop
// cannot take (buildLaneTable), or lanes too short for one iteration,
// decode nothing here.
func (ds *DecodeScratch) laneLoop(out []int32, bodies []byte, laneLen [4]int, csyms []int32, clens []uint8) (pos int, bit [4]int) {
	maxLen := int(clens[len(clens)-1])
	if maxLen > laneMaxLen {
		return 0, bit
	}
	d := &ds.ld
	d.Rounds = 56 / maxLen
	step := 4 * d.Rounds
	var start [4]int
	for lane := 1; lane < 4; lane++ {
		start[lane] = start[lane-1] + laneLen[lane-1]
	}
	d.Pos = start
	iters := func() int {
		k := (len(out) - pos) / step
		for lane, p := range d.Pos {
			k = min(k, (start[lane]+laneLen[lane]-p-8)/7)
		}
		return k
	}
	k := iters()
	if k < 1 || !ds.buildLaneTable(clens) {
		return 0, bit
	}
	d.Body, d.Syms, d.Table = bodies, csyms, ds.tab
	for lane, p := range d.Pos {
		d.Win[lane] = binary.BigEndian.Uint64(bodies[p:]) | 1
	}
	for ; k >= 1; k = iters() {
		d.Out = out[pos : pos+k*step]
		kernels.DecodeLanes4(d)
		pos += k * step
	}
	for lane, p := range d.Pos {
		bit[lane] = 8*(p-start[lane]) + bits.TrailingZeros64(d.Win[lane])
	}
	d.Body, d.Out, d.Syms = nil, nil, nil
	return pos, bit
}

// laneMaxLen is the longest code the lane loop's two-level table
// resolves: a tableBits first level, and subtables of at most tableBits.
const laneMaxLen = 2 * tableBits

// laneSubCap caps the two-level table's subtables at 2^16 entries in
// all, so no table's second level takes more than 256 KB.
const laneSubCap = 1 << 16

// buildLaneTable builds the lane loop's two-level table
// (kernels.LaneDecode) for the canonical code clens describes into
// ds.tab; prepareTables' per-length tables must be current. Each 12-bit
// prefix that longer codes extend gets one subtable, sized by the
// longest code under it. It reports false for every table the loop
// cannot take, which then decodes through the checked path: an
// incomplete code, one symbol's included, or an oversubscribed one
// (where not every window decodes, or not uniquely), a code longer than
// laneMaxLen, 2^24 symbols or more (indices past the entries' 24 bits),
// or subtables past laneSubCap. clens must not be empty.
func (ds *DecodeScratch) buildLaneTable(clens []uint8) bool {
	n := len(clens)
	if n >= 1<<24 {
		return false
	}
	// The canonical counter ends at 2^maxLen times the Kraft sum:
	// exactly 2^maxLen for a complete code.
	maxLen := uint(clens[n-1])
	if maxLen > laneMaxLen || ds.firstCode[maxLen]+uint64(ds.countAt[maxLen]) != 1<<maxLen {
		return false
	}
	code := func(i int) uint64 {
		l := clens[i]
		return ds.firstCode[l] + uint64(int32(i)-ds.firstSym[l])
	}
	// In a complete code the codes under one prefix run contiguously in
	// canonical order, from an all-zeros suffix to an all-ones one, and
	// the last is the longest: record each prefix's longest code there.
	long := int(ds.firstSym[tableBits+1])
	total := 0
	for i := long; i < n; i++ {
		ext := uint(clens[i]) - tableBits
		if c := code(i); c&(1<<ext-1) == 1<<ext-1 {
			ds.sub[c>>ext] = clens[i]
			total += 1 << ext
		}
	}
	if total > laneSubCap {
		return false
	}
	tab := grow(&ds.tab, kernels.LaneTableRoot+total)
	for i := 0; i < long; i++ {
		l := uint(clens[i])
		lo := code(i) << (tableBits - l)
		fill(tab[lo:lo+1<<(tableBits-l)], uint32(i)<<8|uint32(l))
	}
	next, base := uint32(kernels.LaneTableRoot), uint32(0)
	for i := long; i < n; i++ {
		l := uint(clens[i])
		ext := l - tableBits
		c := code(i)
		p, suf := c>>ext, c&(1<<ext-1)
		sb := uint(ds.sub[p]) - tableBits
		if suf == 0 { // the prefix's first code opens its subtable
			base = next
			tab[p] = base<<8 | kernels.LaneLink | uint32(64-sb)
			next += 1 << sb
		}
		lo := base + uint32(suf<<(sb-ext))
		fill(tab[lo:lo+1<<(sb-ext)], uint32(i)<<8|uint32(l))
	}
	return true
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// laneErr words a failed four-lane symbol decode at output position pos
// of n.
func laneErr(err error, pos int, n uint64) error {
	if err == bitstream.ErrOutOfBits {
		return fmt.Errorf("huffman: lane %d bit stream exhausted after %d of %d symbols", pos&3, pos, n)
	}
	return err
}
