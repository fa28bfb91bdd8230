package sz

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Pointwise-relative compression (SZ's third traditional error-control
// mode, listed in the paper's §II-B) is implemented by compressing in the
// logarithmic domain: y = ln|x| is compressed with the ordinary Lorenzo
// pipeline under the absolute bound ebLog = ln(1 + ebRel), which
// guarantees |x̃/x − 1| ≤ ebRel for every non-zero point. Signs and exact
// zeros travel in bit masks alongside the inner stream.
//
// Stream layout (codec.IDLogLorenzo): the outer container header
// records ebRel in its EbAbs slot, followed by one payload chunk, which
// the container's chunk decoder hands to DecompressChunk like any other:
//
//	ebRel               8 bytes IEEE-754 LE
//	maskLen             uvarint (compressed byte count)
//	flate(signMask || zeroMask)   each mask ⌈n/8⌉ bytes, MSB-first
//	inner codec.IDLorenzo stream  (the log-domain field)

// CompressPWRel implements codec.PWRelCodec: it compresses the field
// under a pointwise relative error bound, so every reconstructed value
// satisfies |x̃ − x| ≤ ebRel·|x| (zeros are reconstructed exactly).
// Values whose magnitude underflows the log domain (denormals) are
// handled like any other: ln|x| is finite for all non-zero floats. ctx
// and sc are threaded into the inner log-domain Lorenzo compression, and
// the mask DEFLATE encoder comes from the scratch pool. The public API
// routes ModePWRel to any registered codec with this capability.
func (szCodec) CompressPWRel(ctx context.Context, f *field.Field, ebRel float64, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if !(ebRel > 0) || ebRel >= 1 || math.IsNaN(ebRel) {
		return nil, nil, fmt.Errorf("sz: pointwise relative bound must be in (0, 1), got %g", ebRel)
	}
	n := f.Len()
	// One backing array so the concatenated masks DEFLATE as a single
	// write with no join copy.
	maskBytes := (n + 7) / 8
	masks := make([]byte, 2*maskBytes)
	signMask := masks[:maskBytes]
	zeroMask := masks[maskBytes:]
	logField := field.New(f.Name, field.Float64, f.Dims...)
	for i, v := range f.Data {
		if math.Signbit(v) {
			signMask[i/8] |= 1 << (7 - i%8)
		}
		if v == 0 {
			zeroMask[i/8] |= 1 << (7 - i%8)
			// A neutral stand-in keeps the log field smooth; the zero
			// mask restores exactness.
			logField.Data[i] = 0
			continue
		}
		logField.Data[i] = math.Log(math.Abs(v))
	}

	ebLog := math.Log1p(ebRel) * (1 - 1e-12) // tiny margin for exp/log rounding
	innerOpt := opt
	innerOpt.ErrorBound = ebLog
	innerOpt.Mode = codec.ModePWRel
	innerOpt.TargetPSNR = math.NaN()
	inner, innerStats, err := codec.Encode(ctx, logField, szCodec{}, innerOpt, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel inner compression: %w", err)
	}

	maskStream := sc.AppendDeflate(nil, masks)

	payload := make([]byte, 0, 16+len(maskStream)+len(inner))
	payload = codec.AppendFloat64(payload, ebRel)
	payload = binary.AppendUvarint(payload, uint64(len(maskStream)))
	payload = append(payload, maskStream...)
	payload = append(payload, inner...)

	_, _, vr := f.ValueRange()
	h := &codec.Header{
		Codec:      codec.IDLogLorenzo,
		Precision:  f.Precision,
		Mode:       codec.ModePWRel,
		Name:       f.Name,
		Dims:       f.Dims,
		EbAbs:      ebRel, // the pointwise relative bound, by convention
		TargetPSNR: math.NaN(),
		ValueRange: vr,
		Capacity:   innerStats.Capacity,
		Chunks: []codec.ChunkInfo{{
			Rows: f.Dims[0],
			Len:  len(payload),
			MSE:  math.NaN(), // log-domain streams do not track data-domain MSE
			Min:  math.NaN(),
			Max:  math.NaN(),
		}},
	}
	if h.Capacity == 0 {
		h.Capacity = 4 // constant inner stream; keep header valid
	}
	out := append(h.Marshal(), payload...)

	st := &Stats{
		OriginalBytes:   f.SizeBytes(),
		CompressedBytes: len(out),
		NPoints:         n,
		Unpredictable:   innerStats.Unpredictable,
		Chunks:          innerStats.Chunks,
		Capacity:        innerStats.Capacity,
		ValueRange:      vr,
		// The inner MSE is measured in the log domain; the data-domain
		// MSE is not tracked for this codec.
		MSE: math.NaN(),
	}
	st.Ratio = float64(st.OriginalBytes) / float64(len(out))
	st.BitRate = 8 * float64(len(out)) / float64(n)
	return out, st, nil
}

// decompressPWRelChunk decodes a log-domain stream's one payload chunk
// into dst: the sign and zero masks, then the inner Lorenzo stream, whose
// declared point count must match dst before it is decoded, then exp and
// the signs. Transient buffers come from sc (nil = fresh allocations).
func decompressPWRelChunk(payload []byte, h *codec.Header, dst []float64, sc *codec.Scratch) error {
	if len(h.Chunks) != 1 {
		return fmt.Errorf("sz: pwrel stream should have one payload chunk")
	}
	_, payload, err := codec.ReadFloat64(payload) // ebRel (informational)
	if err != nil {
		return err
	}
	maskLen, payload, err := codec.ReadUvarint(payload)
	if err != nil {
		return err
	}
	if uint64(len(payload)) < maskLen {
		return fmt.Errorf("sz: pwrel masks truncated")
	}
	n := len(dst)
	maskBytes := (n + 7) / 8
	// Inflating one byte past the masks' size is enough to reject an
	// oversized mask section.
	fr := sc.FlateReader(bytes.NewReader(payload[:maskLen]))
	masks, err := io.ReadAll(io.LimitReader(fr, 2*int64(maskBytes)+1))
	if err != nil {
		fr.Close()
		sc.PutFlateReader(fr)
		return fmt.Errorf("sz: pwrel masks: %w", err)
	}
	if err := fr.Close(); err != nil {
		sc.PutFlateReader(fr)
		return err
	}
	sc.PutFlateReader(fr)
	if len(masks) != 2*maskBytes {
		return fmt.Errorf("sz: pwrel masks have %d bytes, want %d", len(masks), 2*maskBytes)
	}
	signMask := masks[:maskBytes]
	zeroMask := masks[maskBytes:]

	inner := payload[maskLen:]
	ih, err := codec.ParseHeader(inner)
	if err != nil {
		return fmt.Errorf("sz: pwrel inner stream: %w", err)
	}
	if ih.NPoints() != n {
		return fmt.Errorf("sz: pwrel inner field has %d points, want %d", ih.NPoints(), n)
	}
	logField, err := codec.DecompressRegionFrom(context.Background(), ih, func(ci int) ([]byte, error) {
		return codec.ChunkPayload(inner, ih, ci)
	}, make([]int, len(ih.Dims)), ih.Dims, sc, nil)
	if err != nil {
		return fmt.Errorf("sz: pwrel inner stream: %w", err)
	}

	for i := range dst {
		if zeroMask[i/8]&(1<<(7-i%8)) != 0 {
			if signMask[i/8]&(1<<(7-i%8)) != 0 {
				dst[i] = math.Copysign(0, -1)
			} else {
				dst[i] = 0
			}
			continue
		}
		v := math.Exp(logField.Data[i])
		if signMask[i/8]&(1<<(7-i%8)) != 0 {
			v = -v
		}
		dst[i] = v
	}
	return nil
}
