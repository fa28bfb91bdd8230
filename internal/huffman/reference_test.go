package huffman

import (
	"encoding/binary"

	"fixedpsnr/internal/bitstream"
)

// emitSyms packs syms' code words into w in order, two symbols per
// WriteBits call when their combined width fits one staged write.
func emitSyms(w *bitstream.Writer, syms []int32, lenOf []uint8, codes []uint64) {
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
	dst, lenOf, codes, err := buildTable(nil, syms, maxSymOf(syms), nil)
	if err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(len(syms) / 2)
	emitSyms(w, syms, lenOf, codes)
	body := w.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}
