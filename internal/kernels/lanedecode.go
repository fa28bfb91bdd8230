package kernels

import (
	"encoding/binary"
	"math/bits"
)

// The four-lane Huffman decode loop (internal/huffman DecodeLanes4Into)
// reads a two-level table. Its first LaneTableRoot entries are indexed
// by a window's top LaneRootBits bits. An entry for a code of at most
// LaneRootBits bits holds canonical index<<8 | code length. An entry for
// a prefix that longer codes extend holds subtable offset<<8 |
// LaneLink | (64 − subtable bits); the subtable, at that offset in the
// same slice, is indexed by the window's next subtable bits, and its
// entries hold canonical index<<8 | code length. So the low 6 bits of
// every entry the loop consumes are the shift that takes its code off
// the window, and those of a link entry are the shift that leaves a
// subtable index. Every pattern of a complete code resolves, so any
// window bits decode.
const (
	LaneRootBits  = 12
	LaneTableRoot = 1 << LaneRootBits
	LaneLink      = 1 << 6
)

// LaneDecode is the state of the four-lane decode loop, laid out for
// direct assembly access (TestAsmStructOffsets pins the offsets).
//
// Each lane's window holds its unconsumed bits MSB-first with a
// sentinel bit just below them: a lane at bit b of Body reads
// Win = (BE64(Body[Pos:]) | 1) << (b − 8·Pos), with b − 8·Pos in 0..7,
// so TrailingZeros64(Win) is the bit count consumed since Pos.
type LaneDecode struct {
	Body  []byte   // the lane bodies
	Out   []int32  // decoded symbols: round r's lane l symbol at Out[4r+l]
	Syms  []int32  // symbols in canonical order
	Table []uint32 // the two-level table

	Pos [4]int    // each lane's byte offset in Body
	Win [4]uint64 // each lane's window

	// Rounds is how many symbols each lane decodes between reloads; a
	// lane's window spends at most 7 + Rounds·maxLen of its 63 data
	// bits, so Rounds·maxLen ≤ 56.
	Rounds int
}

// DecodeLanes4 runs len(d.Out)/(4·d.Rounds) iterations of the lane
// loop. An iteration decodes d.Rounds rounds of one symbol per lane, then
// reloads every lane without a branch: c = TrailingZeros64(Win),
// Pos += c>>3, Win = (BE64(Body[Pos:]) | 1) << (c&7). So an iteration
// moves a lane at most 7 bytes, and the caller keeps every lane's 8-byte
// load inside that lane's own bytes. Pos and Win hold each lane's state
// after the last reload.
//
// len(d.Out) must be a multiple of 4·d.Rounds, and d.Table must be a
// well-formed table for d.Syms (every index it holds in range). A call
// whose loads would leave d.Body panics before it starts.
func DecodeLanes4(d *LaneDecode) {
	if d.Rounds < 1 || len(d.Out)%(4*d.Rounds) != 0 || len(d.Table) < LaneTableRoot {
		panic("kernels: DecodeLanes4 state out of range")
	}
	iters := len(d.Out) / (4 * d.Rounds)
	if iters == 0 {
		return
	}
	for _, p := range d.Pos {
		if p < 0 || p+7*iters+8 > len(d.Body) {
			panic("kernels: DecodeLanes4 lane load out of range")
		}
	}
	decodeLanes4Fn(d)
}

// decodeLanes4Generic is the portable DecodeLanes4, and the reference
// the assembly loop is held to. It runs each lane's rounds in turn;
// lanes do not interact, so the outputs are the round-robin order's.
func decodeLanes4Generic(d *LaneDecode) {
	tab, syms, body := d.Table, d.Syms, d.Body
	step := 4 * d.Rounds
	for k := 0; k+step <= len(d.Out); k += step {
		blk := d.Out[k : k+step]
		for lane := range 4 {
			w := d.Win[lane]
			for r := lane; r < step; r += 4 {
				e := tab[w>>(64-LaneRootBits)]
				if e&LaneLink != 0 {
					e = tab[e>>8+uint32(w<<LaneRootBits>>(e&63))]
				}
				w <<= e & 63
				blk[r] = syms[e>>8]
			}
			c := bits.TrailingZeros64(w)
			p := d.Pos[lane] + c>>3
			d.Pos[lane] = p
			d.Win[lane] = (binary.BigEndian.Uint64(body[p:]) | 1) << (c & 7)
		}
	}
}
