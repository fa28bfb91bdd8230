package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"fixedpsnr/internal/field"
	"fixedpsnr/internal/huffman"
)

// Chunk payload format, shared by the SZ and transform pipelines. This
// file is its one owner: both pipelines write chunk payloads only through
// Scratch.AppendPayload and read them only through Scratch.ParsePayload.
// A payload carries one chunk's quantization codes and unpredictable
// literals behind a pipeline-specific prefix (the transform pipeline
// records its transform byte and block size there; the SZ pipeline's
// prefix is empty):
//
//	[PayloadMarker][PayloadVersionLanes4]
//	prefix
//	uvarint(npoints)
//	[codes flag] uvarint(codesLen) <four-lane Huffman block, raw or DEFLATE>
//	uvarint(litLen) <DEFLATE(uvarint(nlit) + literal bytes), litLen bytes>
//
// Literals are little-endian IEEE floats at the precision the caller
// names: float32 bits for field.Float32, float64 bits otherwise.
//
// Legacy chunk payloads (every stream before the four-lane format) are
// bare DEFLATE streams wrapping prefix, uvarint(npoints), the
// single-stream Huffman block (huffman.DecodeInto), uvarint(nlit), and
// the literal bytes. Their first byte encodes BFINAL and BTYPE in its
// low three bits, and the only invalid combination is BTYPE = 3
// (reserved, RFC 1951 §3.2.3). A first byte of 0x07 — BFINAL=1,
// BTYPE=3 — therefore can never begin a valid legacy payload, which
// makes it a safe in-band version marker: decoders dispatch on it with
// no header bump or stream-level flag, and legacy payloads keep decoding
// through the pre-lane path byte for byte.
const (
	// PayloadMarker introduces a versioned chunk payload:
	// payload[0] == PayloadMarker, payload[1] == the version byte.
	PayloadMarker = 0x07

	// PayloadVersionLanes4 is the four-lane interleaved Huffman payload:
	// the quantization codes are split into 4 interleaved lanes sharing
	// one canonical code table (huffman.EncodeLanes4), framed by a
	// codes-encoding flag and a byte length, and usually stored raw —
	// Huffman output on noisy chunks is within a fraction of a percent of
	// incompressible, so DEFLATE over it bought ~0.1% ratio for a
	// dominant share of decode time. The literal section always stays
	// DEFLATE-compressed.
	PayloadVersionLanes4 = 1
)

// Codes-section encodings inside a versioned payload. Raw is the fast
// path; Deflate survives for smooth chunks, where the Huffman body is
// long runs of one pattern and DEFLATE still collapses it — the regime
// fixed-ratio steering at high targets depends on.
const (
	PayloadCodesRaw     = 0
	PayloadCodesDeflate = 1
)

// CodesDeflateWins reports whether a deflated codes section earns its
// decode-time cost over storing rawLen bytes directly: it must save more
// than 1/16th (6.25%). Typical noisy chunks deflate by ~0.1% and stay
// raw; run-dominated smooth chunks deflate by 90%+ and opt in.
func CodesDeflateWins(rawLen, compLen int) bool {
	return compLen < rawLen-rawLen/16
}

// AppendPayload appends one chunk payload in the four-lane layout to dst
// and returns the extended slice. Every code must lie in [0, maxSym] —
// the pipelines pass their quantizer's capacity−1, since quantization
// codes are below the capacity by construction — which lets the Huffman
// coder skip a validation pass. maxSym sizes the coder's tables once per
// scratch; each chunk's table build costs what its code window holds
// (huffman.EncodeLanes4). Literals are stored at precision prec.
// The codes keep the DEFLATE wrap only when it wins (CodesDeflateWins);
// the literal section is always deflated. Staging buffers and encoders
// come from s (nil = fresh allocations); the appended bytes share no
// storage with its pools.
func (s *Scratch) AppendPayload(dst, prefix []byte, codes []int32, maxSym int, literals []float64, prec field.Precision) ([]byte, error) {
	out := s.Bytes(len(codes)/2 + len(literals)*8 + 64)
	out = append(out, PayloadMarker, PayloadVersionLanes4)
	out = append(out, prefix...)
	out = binary.AppendUvarint(out, uint64(len(codes)))

	block := s.Bytes(len(codes)/2 + 64)
	hs := s.Huffman()
	block, err := huffman.EncodeLanes4(block, codes, maxSym, hs)
	s.PutHuffman(hs)
	if err != nil {
		s.PutBytes(block)
		s.PutBytes(out)
		return nil, err
	}
	comp := s.AppendDeflate(s.Bytes(len(block)/2+64), block)
	if CodesDeflateWins(len(block), len(comp)) {
		out = append(out, PayloadCodesDeflate)
		out = binary.AppendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	} else {
		out = append(out, PayloadCodesRaw)
		out = binary.AppendUvarint(out, uint64(len(block)))
		out = append(out, block...)
	}
	s.PutBytes(comp)
	s.PutBytes(block)

	raw := s.Bytes(len(literals)*8 + 16)
	raw = binary.AppendUvarint(raw, uint64(len(literals)))
	raw = appendLiterals(raw, literals, prec)
	stage := s.AppendDeflate(s.Bytes(len(raw)/2+64), raw)
	s.PutBytes(raw)
	out = binary.AppendUvarint(out, uint64(len(stage)))
	out = append(out, stage...)
	s.PutBytes(stage)

	// Appending the finished staging buffer in one step keeps append
	// growth inside the pool: a nil dst gets an exact-size payload.
	dst = append(dst, out...)
	s.PutBytes(out)
	return dst, nil
}

// ParsePayload reverses AppendPayload, and decodes legacy payloads too
// (dispatched on the first byte). prefix, when non-nil, parses and
// validates the pipeline's prefix from the bytes after the version byte
// (from the inflated stream, for legacy payloads) and returns the bytes
// after it. prec must be the precision the literals were written at.
// The returned codes and literals come from s (nil = fresh allocations);
// the caller owns them and should PutInt32s/PutFloats them when done.
// Malformed input of any kind is an error, never a panic, and no buffer
// is sized from a declared count the bytes behind it cannot back.
func (s *Scratch) ParsePayload(payload []byte, prec field.Precision, prefix func([]byte) ([]byte, error)) (codes []int32, literals []float64, err error) {
	if len(payload) >= 2 && payload[0] == PayloadMarker {
		return s.parseLanes4(payload, prec, prefix)
	}
	return s.parseLegacy(payload, prec, prefix)
}

// parseLanes4 decodes a versioned four-lane payload.
func (s *Scratch) parseLanes4(payload []byte, prec field.Precision, prefix func([]byte) ([]byte, error)) ([]int32, []float64, error) {
	if payload[1] != PayloadVersionLanes4 {
		return nil, nil, fmt.Errorf("codec: unsupported chunk payload version %d", payload[1])
	}
	rest := payload[2:]
	if prefix != nil {
		var err error
		if rest, err = prefix(rest); err != nil {
			return nil, nil, err
		}
	}
	npoints, rest, err := ReadUvarint(rest)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 1 {
		return nil, nil, fmt.Errorf("codec: truncated codes section")
	}
	codesEnc := rest[0]
	codesLen, rest, err := ReadUvarint(rest[1:])
	if err != nil {
		return nil, nil, err
	}
	if codesLen > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("codec: codes section shorter than declared (%d < %d)", len(rest), codesLen)
	}
	block, rest := rest[:codesLen], rest[codesLen:]
	switch codesEnc {
	case PayloadCodesRaw:
		// block is the lanes4 bitstream as stored — the fast path.
	case PayloadCodesDeflate:
		cbuf := s.Buffer()
		defer s.PutBuffer(cbuf)
		if err := s.inflate(cbuf, block); err != nil {
			return nil, nil, err
		}
		block = cbuf.Bytes()
	default:
		return nil, nil, fmt.Errorf("codec: unknown codes encoding %d", codesEnc)
	}
	if npoints > uint64(len(block))*8 {
		// Every code costs at least one bit in its lane; reject a corrupt
		// count before sizing the code buffer from it. The check runs
		// against the materialized (post-inflate) block, since a deflated
		// codes section legitimately holds more symbols than 8× its
		// stored bytes.
		return nil, nil, fmt.Errorf("codec: %d codes cannot fit in %d codes-section bytes", npoints, len(block))
	}
	hd := s.HuffDecode()
	codes, _, err := huffman.DecodeLanes4Into(s.Int32s(int(npoints))[:0], block, hd)
	s.PutHuffDecode(hd)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(codes)) != npoints {
		s.PutInt32s(codes)
		return nil, nil, fmt.Errorf("codec: decoded %d codes, payload declares %d", len(codes), npoints)
	}
	literals, err := s.literalSection(rest, prec)
	if err != nil {
		s.PutInt32s(codes)
		return nil, nil, err
	}
	return codes, literals, nil
}

// literalSection decodes the four-lane layout's literal section:
// uvarint(litLen), then litLen bytes of DEFLATE over the literals.
func (s *Scratch) literalSection(b []byte, prec field.Precision) ([]float64, error) {
	litLen, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if litLen > uint64(len(b)) {
		return nil, fmt.Errorf("codec: literal section shorter than declared (%d < %d)", len(b), litLen)
	}
	buf := s.Buffer()
	defer s.PutBuffer(buf)
	if err := s.inflate(buf, b[:litLen]); err != nil {
		return nil, err
	}
	return s.readLiterals(buf.Bytes(), prec)
}

// parseLegacy decodes the pre-lane layout: one DEFLATE stream wrapping
// the prefix, uvarint(npoints), the single-stream Huffman block,
// uvarint(nlit), and the literal bytes.
func (s *Scratch) parseLegacy(payload []byte, prec field.Precision, prefix func([]byte) ([]byte, error)) ([]int32, []float64, error) {
	buf := s.Buffer()
	defer s.PutBuffer(buf)
	if err := s.inflate(buf, payload); err != nil {
		return nil, nil, err
	}
	rest := buf.Bytes()
	if prefix != nil {
		var err error
		if rest, err = prefix(rest); err != nil {
			return nil, nil, err
		}
	}
	npoints, rest, err := ReadUvarint(rest)
	if err != nil {
		return nil, nil, err
	}
	if npoints > uint64(len(rest))*8 {
		// Every code costs at least one bit downstream; reject a corrupt
		// count before sizing the code buffer from it.
		return nil, nil, fmt.Errorf("codec: %d codes cannot fit in %d payload bytes", npoints, len(rest))
	}
	hd := s.HuffDecode()
	codes, consumed, err := huffman.DecodeInto(s.Int32s(int(npoints))[:0], rest, hd)
	s.PutHuffDecode(hd)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(codes)) != npoints {
		s.PutInt32s(codes)
		return nil, nil, fmt.Errorf("codec: decoded %d codes, payload declares %d", len(codes), npoints)
	}
	literals, err := s.readLiterals(rest[consumed:], prec)
	if err != nil {
		s.PutInt32s(codes)
		return nil, nil, err
	}
	return codes, literals, nil
}

// inflate decompresses the complete DEFLATE stream src into buf through
// a pooled reader.
func (s *Scratch) inflate(buf *bytes.Buffer, src []byte) error {
	fr := s.FlateReader(bytes.NewReader(src))
	_, err := buf.ReadFrom(fr)
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	s.PutFlateReader(fr)
	if err != nil {
		return fmt.Errorf("codec: inflate: %w", err)
	}
	return nil
}

func appendLiterals(b []byte, vals []float64, prec field.Precision) []byte {
	if prec == field.Float32 {
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
		return b
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// readLiterals decodes uvarint(nlit) and the nlit literals stored at
// precision prec after it. The count is checked against the bytes
// present by division, so no declared count can wrap the product and
// slip past the check.
func (s *Scratch) readLiterals(b []byte, prec field.Precision) ([]float64, error) {
	nlit, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	size := prec.Bytes()
	if nlit > uint64(len(b)/size) {
		return nil, fmt.Errorf("codec: %d literals cannot fit in %d literal bytes", nlit, len(b))
	}
	out := s.Floats(int(nlit))
	if prec == field.Float32 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		}
		return out, nil
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
