package huffman

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"fixedpsnr/internal/kernels"
)

// fuzzCodeLens turns bytes into the code lengths of a complete code of
// at most laneMaxLen bits, in canonical (ascending) order. It starts
// from two 1-bit codes and splits one leaf per byte into two one bit
// longer: a byte with the top bit set splits the newest leaf, so runs of
// them grow deep chains, and any other byte picks a leaf by value.
func fuzzCodeLens(raw []byte) []uint8 {
	lens := []uint8{1, 1}
	for _, b := range raw {
		i := len(lens) - 1
		if b&0x80 == 0 {
			i = int(b) % len(lens)
		}
		if lens[i] >= laneMaxLen {
			continue
		}
		lens[i]++
		lens = append(lens, lens[i])
	}
	slices.Sort(lens)
	return lens
}

// laneTableFor builds the lane loop's table for the canonical lengths
// clens through the production path, reporting whether the loop takes
// it.
func laneTableFor(clens []uint8) (*DecodeScratch, bool) {
	ds := NewDecodeScratch()
	ds.prepareTables(make([]int32, len(clens)), clens)
	return ds, ds.buildLaneTable(clens)
}

// refLaneDecode decodes n codes of the canonical code clens from the
// start of body bit by bit, with no table: it returns their canonical
// indices and the bits they take.
func refLaneDecode(clens []uint8, body []byte, n int) (idx []int, used int) {
	var count [laneMaxLen + 1]int
	for _, l := range clens {
		count[l]++
	}
	for range n {
		code, first, at := 0, 0, 0
		for l := 1; ; l++ {
			code = code<<1 | int(body[used>>3]>>(7-used&7)&1)
			used++
			if code-first < count[l] {
				idx = append(idx, at+code-first)
				break
			}
			at += count[l]
			first = (first + count[l]) << 1
		}
	}
	return idx, used
}

// FuzzLaneLoop holds the lane loop (kernels.DecodeLanes4) as dispatched
// — the BMI assembly where the CPU has it — to its Go twin, and both to
// a bit-by-bit canonical decode. The code is a fuzzer-shaped complete
// code of up to 24 bits (fuzzCodeLens), the table the production build
// of it, and the lane bodies the fuzzer's bytes repeated: under a
// complete code any bits decode. Each lane is 8 + 7·iters bytes plus 0–6
// spare, so the driver's size limit admits exactly iters iterations and
// a lane of all-ones bits (the longest code at every round) reloads from
// its last 8 bytes. Every rounds value from 1 to 56/maxLen runs; the
// symbols and each lane's final bit position must agree, and no lane
// may load past its own bytes.
func FuzzLaneLoop(f *testing.F) {
	chain := func(depth int) []byte { // a chain of depth codes, then more leaves
		b := make([]byte, depth-1)
		for i := range b {
			b[i] = 0x80
		}
		return append(b, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
	}
	f.Add(chain(24), []byte{0xff}, uint8(0))
	f.Add(chain(24), []byte{0x5a, 0xc3, 0x00, 0xff}, uint8(0x47))
	// 13–24-bit codes with varied subtable indices.
	f.Add(chain(24), []byte{0xff, 0xff, 0xa5, 0x3c}, uint8(0x5e))
	f.Add(chain(14), []byte{0xff}, uint8(0x23)) // 14-bit codes: 4 rounds take all 56 bits
	f.Add(chain(8), []byte{0xff, 0x7e}, uint8(0x91))
	f.Add([]byte{}, []byte{0x12, 0x34}, uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0x96}, uint8(0xff))
	f.Fuzz(func(t *testing.T, shape, fill []byte, lay uint8) {
		if len(shape) > 4096 {
			shape = shape[:4096]
		}
		clens := fuzzCodeLens(shape)
		ds, ok := laneTableFor(clens)
		if !ok {
			return // subtables past the cap: the checked path's table
		}
		csyms := make([]int32, len(clens))
		for i := range csyms {
			csyms[i] = int32(3*i + 1)
		}
		if len(fill) == 0 {
			fill = []byte{0xff}
		}
		iters := 1 + int(lay&7)
		var start, end [4]int
		var body []byte
		for lane := range 4 {
			spare := int(lay>>3) * (lane + 1) % 7
			start[lane] = len(body)
			for k := range 8 + 7*iters + spare {
				body = append(body, fill[(k+lane)%len(fill)])
			}
			end[lane] = len(body)
		}
		maxLen := int(clens[len(clens)-1])
		for rounds := 1; rounds <= 56/maxLen; rounds++ {
			run := func(generic bool) kernels.LaneDecode {
				if generic {
					defer kernels.ForceGeneric()()
				}
				d := kernels.LaneDecode{
					Body: body, Out: make([]int32, 4*rounds*iters), Syms: csyms, Table: ds.tab,
					Pos: start, Rounds: rounds,
				}
				for lane, p := range d.Pos {
					d.Win[lane] = binary.BigEndian.Uint64(body[p:]) | 1
				}
				kernels.DecodeLanes4(&d)
				return d
			}
			got, want := run(false), run(true)
			if !slices.Equal(got.Out, want.Out) || got.Pos != want.Pos || got.Win != want.Win {
				t.Fatalf("maxLen %d, rounds %d, %d iterations: dispatched loop (%s) differs from the Go twin: pos %v / %v",
					maxLen, rounds, iters, kernels.Active(), got.Pos, want.Pos)
			}
			for lane := range 4 {
				idx, used := refLaneDecode(clens, body[start[lane]:end[lane]], rounds*iters)
				for r, i := range idx {
					if s := want.Out[4*r+lane]; s != csyms[i] {
						t.Fatalf("maxLen %d, rounds %d: lane %d symbol %d is %d, canonical decode %d", maxLen, rounds, lane, r, s, csyms[i])
					}
				}
				p := want.Pos[lane]
				if bit := 8*(p-start[lane]) + bits.TrailingZeros64(want.Win[lane]); bit != used {
					t.Fatalf("maxLen %d, rounds %d: lane %d ends at bit %d, canonical decode at %d", maxLen, rounds, lane, bit, used)
				}
				if p+8 > end[lane] {
					t.Fatalf("maxLen %d, rounds %d: lane %d loaded past its %d bytes (from %d)", maxLen, rounds, lane, end[lane]-start[lane], p-start[lane])
				}
			}
		}
	})
}

// chainLens returns the lengths, by symbol, of the complete code whose
// symbol k has length k+1 up to depth, and whose last two symbols share
// depth.
func chainLens(depth int) []uint8 {
	lens := make([]uint8, depth+1)
	for s := range lens {
		lens[s] = uint8(min(s+1, depth))
	}
	return lens
}

// fullSubtables returns the lengths, by symbol, of a complete code whose
// last k 12-bit prefixes each hold 4096 24-bit codes, and whose other
// prefixes are 12-bit codes: k subtables of 4096 entries.
func fullSubtables(k int) []uint8 {
	lens := make([]uint8, 1<<tableBits-k+k<<tableBits)
	for s := range lens {
		lens[s] = tableBits
		if s >= 1<<tableBits-k {
			lens[s] = laneMaxLen
		}
	}
	return lens
}

// TestDecodeLanes4Fallbacks decodes, through DecodeLanes4Into and
// DecodeInto, a stream under each kind of table the lane loop cannot
// take — one symbol, an incomplete code, an oversubscribed code, a
// 25-bit code, subtables past the 2^16-entry cap — and, beside each, a
// table just inside the limit, which must take the loop. Both decoders
// must return the input. The streams are long enough for many loop
// iterations.
func TestDecodeLanes4Fallbacks(t *testing.T) {
	cases := []struct {
		name   string
		lens   []uint8 // by symbol
		emit   int     // the stream uses symbols 0..emit-1
		inLoop bool
	}{
		{"one symbol", []uint8{1}, 1, false},
		{"incomplete", []uint8{1, 2}, 2, false},
		{"complete", []uint8{1, 2, 2}, 3, true},
		{"oversubscribed", []uint8{1, 2, 2, 2}, 3, false},
		{"25-bit chain", chainLens(25), 26, false},
		{"24-bit chain", chainLens(24), 25, true},
		{"17 full subtables", fullSubtables(17), len(fullSubtables(17)), false},
		{"16 full subtables", fullSubtables(16), len(fullSubtables(16)), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Every emitted symbol in turn, then a run weighted to the
			// short codes, so every lane meets every code.
			var syms []int32
			for rep := range max(1, 64/c.emit) {
				for s := range c.emit {
					syms = append(syms, int32((s*7+rep)%c.emit))
				}
			}
			for i := range 20000 {
				syms = append(syms, int32(i%5%c.emit))
			}
			single, lanes := handEncode(c.lens, syms)

			ds := NewDecodeScratch()
			_, csyms, clens, _, err := parseTable(lanes, ds)
			if err != nil {
				t.Fatal(err)
			}
			ds.prepareTables(csyms, clens)
			if got := ds.buildLaneTable(clens); got != c.inLoop {
				t.Fatalf("lane loop takes the table: %v, want %v", got, c.inLoop)
			}
			got, _, err := DecodeLanes4Into(nil, lanes, ds)
			if err != nil || !slices.Equal(got, syms) {
				t.Fatalf("DecodeLanes4Into: err %v, symbols equal %v", err, slices.Equal(got, syms))
			}
			want, _, err := DecodeInto(nil, single, NewDecodeScratch())
			if err != nil || !slices.Equal(want, syms) {
				t.Fatalf("DecodeInto: err %v, symbols equal %v", err, slices.Equal(want, syms))
			}
		})
	}
}

// checkedLanes4 decodes a four-lane stream on the checked path alone —
// decodeSym from bit 0 of every lane — the reference for what the lane
// loop hands over: the same symbols and, on a short or corrupt lane,
// the same error. The stream must pass DecodeLanes4Into's size checks.
func checkedLanes4(buf []byte) ([]int32, error) {
	ds := NewDecodeScratch()
	n, csyms, clens, consumed, err := parseTable(buf, ds)
	if err != nil {
		return nil, err
	}
	rd := buf[consumed:]
	var lens [4]int
	for lane := range lens {
		l, k := binary.Uvarint(rd)
		rd = rd[k:]
		lens[lane] = int(l)
	}
	ds.prepareTables(csyms, clens)
	for lane, l := range lens {
		ds.lanes[lane].Reset(rd[:l])
		rd = rd[l:]
	}
	out := make([]int32, n)
	for pos := range out {
		s, err := ds.decodeSym(&ds.lanes[pos&3], csyms)
		if err != nil {
			return nil, laneErr(err, pos, n)
		}
		out[pos] = s
	}
	return out, nil
}

// withLaneCut rewrites a four-lane encoding with lane's body shortened by
// cut bytes from its end (its declared length too), so the decode runs
// out of bits in that lane.
func withLaneCut(enc []byte, lane, cut int) []byte {
	ds := NewDecodeScratch()
	_, _, _, consumed, err := parseTable(enc, ds)
	if err != nil {
		panic(err)
	}
	out := slices.Clone(enc[:consumed])
	rd := enc[consumed:]
	var lens [4]int
	for i := range lens {
		l, k := binary.Uvarint(rd)
		rd = rd[k:]
		lens[i] = int(l)
		if i == lane {
			l -= uint64(cut)
		}
		out = binary.AppendUvarint(out, l)
	}
	for i, l := range lens {
		keep := l
		if i == lane {
			keep -= cut
		}
		out = append(out, rd[:keep]...)
		rd = rd[l:]
	}
	return out
}

// TestLaneLoopErrorsMatchCheckedPath cuts one lane of wide-corpus
// streams short, or flips bits inside a lane, and decodes through
// DecodeLanes4Into and through the checked path alone: the lane loop
// must hand over each lane at the bit the checked path would have
// reached, so both report the same error at the same symbol, or decode
// the same symbols. A one-symbol stream of 3-bit codes, which decodes as
// a fill while its lanes hold only zero bits, must fail the same way;
// its last byte holds 3 bits of lane 3 and 5 of padding.
func TestLaneLoopErrorsMatchCheckedPath(t *testing.T) {
	var encs [][]byte
	for _, syms := range wideCorpora()[:4] {
		enc, err := EncodeLanes4(nil, syms, maxSymOf(syms), nil)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	_, oneSym := handEncode([]uint8{3}, make([]int32, 1<<14+7))
	encs = append(encs, oneSym)
	ds := NewDecodeScratch()
	for i, enc := range encs {
		var streams [][]byte
		for lane := range 4 {
			for _, cut := range []int{1, 9, 300} {
				streams = append(streams, withLaneCut(enc, lane, cut))
			}
		}
		for _, flip := range []struct {
			at   int
			mask byte
		}{{len(enc) / 3, 0x5a}, {len(enc) / 2, 0x5a}, {len(enc) - 40, 0x5a}, {len(enc) - 1, 0x80}, {len(enc) - 1, 0x01}} {
			bad := slices.Clone(enc)
			bad[flip.at] ^= flip.mask
			streams = append(streams, bad)
		}
		for j, s := range streams {
			got, _, gotErr := DecodeLanes4Into(nil, s, ds)
			want, wantErr := checkedLanes4(s)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("corpus %d, stream %d: lane loop gives %v, checked path %v (symbols equal %v)",
					i, j, gotErr, wantErr, slices.Equal(got, want))
			}
			if j < 12 && (gotErr == nil || !strings.Contains(gotErr.Error(), "exhausted")) {
				t.Fatalf("corpus %d, stream %d: a cut lane decoded with err %v", i, j, gotErr)
			}
		}
	}
}
