package fixedpsnr

import (
	"context"
	"fmt"
	"io"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/plan"
)

// FieldSpec describes a field whose values arrive incrementally through
// a FieldReader: everything the encoder must know before the first value.
type FieldSpec struct {
	// Name identifies the field.
	Name string
	// Precision is the storage precision of the values.
	Precision Precision
	// Dims holds the grid dimensions, slowest-varying first (rank 1–3).
	Dims []int
	// Min and Max are the field's value range when known. HPC writers
	// usually have it (simulation outputs carry min/max attributes);
	// ModeRel and ModePSNR require it, because the relative bound and
	// the Eq. 8 bound are derived from the range before any value is
	// read. ModeAbs works without it.
	Min, Max float64
	// HasRange reports whether Min/Max are meaningful.
	HasRange bool
}

// FieldReader supplies a field's values incrementally, in row-major
// order, so the streaming encoder never needs the whole field in memory.
// Implementations are read exactly once, front to back.
type FieldReader interface {
	// Spec returns the field's metadata. It is called once, before any
	// values are read.
	Spec() (FieldSpec, error)
	// ReadValues fills dst with the next values in row-major order and
	// returns how many were written (any number ≥ 1 while values
	// remain). It returns io.EOF — with 0 — once the field's
	// Dims-implied point count has been delivered.
	ReadValues(dst []float64) (int, error)
}

// fieldDataReader adapts an in-memory Field to the FieldReader
// interface; its Spec carries the measured value range.
type fieldDataReader struct {
	f   *Field
	pos int
}

// NewFieldReader wraps an in-memory field as a FieldReader (its value
// range is measured up front), so code paths built on EncodeFrom also
// accept fields that happen to fit in memory.
func NewFieldReader(f *Field) FieldReader { return &fieldDataReader{f: f} }

func (r *fieldDataReader) Spec() (FieldSpec, error) {
	if err := r.f.Validate(); err != nil {
		return FieldSpec{}, err
	}
	min, max, _ := r.f.ValueRange()
	return FieldSpec{
		Name:      r.f.Name,
		Precision: r.f.Precision,
		Dims:      append([]int(nil), r.f.Dims...),
		Min:       min,
		Max:       max,
		HasRange:  true,
	}, nil
}

func (r *fieldDataReader) ReadValues(dst []float64) (int, error) {
	if r.pos >= len(r.f.Data) {
		return 0, io.EOF
	}
	n := copy(dst, r.f.Data[r.pos:])
	r.pos += n
	return n, nil
}

// EncodeFrom compresses a field that streams through fr chunk by chunk:
// rows are read into a bounded window of chunk buffers and compressed
// concurrently, so peak memory is O(chunk size × workers) rather than
// O(field) — the out-of-core encode path for fields larger than RAM. The
// output is a standard chunked stream, byte-compatible with Encode's
// given the same chunk tiling.
//
// Constraints that follow from single-pass streaming: ModeRel and
// ModePSNR need the value range up front (FieldSpec.HasRange), because
// the bound is derived from it before the first value arrives; ModePWRel,
// ModeRatio, and AutoCapacity need the whole field and are rejected; the
// Calibrated refinement would need to re-read the input and is ignored. The chunk
// size comes from ChunkPoints (DefaultChunkPoints when zero); ChunkRows
// overrides it.
func (e *Encoder) EncodeFrom(ctx context.Context, fr FieldReader) ([]byte, *Result, error) {
	opt := e.opt
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if opt.Mode == ModePWRel {
		return nil, nil, fmt.Errorf("fixedpsnr: EncodeFrom does not support ModePWRel (needs the whole field)")
	}
	if opt.Mode == ModeRatio {
		return nil, nil, fmt.Errorf("fixedpsnr: EncodeFrom does not support ModeRatio (ratio steering recompresses, which needs the whole field)")
	}
	if len(opt.RegionTargets) > 0 {
		return nil, nil, fmt.Errorf("fixedpsnr: EncodeFrom does not support RegionTargets (region steering recompresses, which needs the whole field)")
	}
	if opt.AutoCapacity {
		return nil, nil, fmt.Errorf("fixedpsnr: EncodeFrom does not support AutoCapacity (needs the whole field)")
	}
	spec, err := fr.Spec()
	if err != nil {
		return nil, nil, fmt.Errorf("fixedpsnr: field spec: %w", err)
	}
	if len(spec.Dims) == 0 || len(spec.Dims) > 3 {
		return nil, nil, fmt.Errorf("fixedpsnr: unsupported rank %d (want 1..3)", len(spec.Dims))
	}
	for _, d := range spec.Dims {
		if d <= 0 {
			return nil, nil, fmt.Errorf("fixedpsnr: non-positive dimension %d in %v", d, spec.Dims)
		}
	}
	vr := 0.0
	if spec.HasRange {
		vr = spec.Max - spec.Min
	}
	if (opt.Mode == ModeRel || opt.Mode == ModePSNR) && !spec.HasRange {
		return nil, nil, fmt.Errorf("fixedpsnr: %v needs FieldSpec.HasRange — the bound derives from the value range before any value is read", opt.Mode)
	}
	if opt.Mode == ModeAbs && !(opt.ErrorBound > 0) && !(spec.HasRange && vr == 0) {
		return nil, nil, fmt.Errorf("fixedpsnr: ModeAbs requires a positive ErrorBound")
	}

	res, err := opt.planRequest(spec.Precision).Resolve(vr)
	if err != nil {
		return nil, nil, err
	}
	if spec.HasRange && vr == 0 {
		return encodeConstantFrom(fr, spec, opt.Mode, res)
	}

	name := opt.codecName()
	c, ok := codec.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("fixedpsnr: codec %q is not registered", name)
	}

	copt := opt.codecOptions(res, vr)
	if copt.ChunkPoints == 0 && copt.ChunkRows == 0 {
		copt.ChunkPoints = DefaultChunkPoints
	}
	// Each worker reads its next chunk, in order, into a session buffer,
	// so at most Workers chunk buffers exist at any moment.
	rows := func(h *codec.Header, ci int) ([]float64, func(), error) {
		buf := e.scratch.Floats(h.ChunkPoints(ci))
		if err := readFull(fr, buf); err != nil {
			e.scratch.PutFloats(buf)
			return nil, nil, fmt.Errorf("fixedpsnr: reading chunk %d: %w", ci, err)
		}
		return buf, func() { e.scratch.PutFloats(buf) }, nil
	}
	out, st, err := codec.EncodeRows(ctx, spec.Name, spec.Precision, spec.Dims, c, copt, e.scratch, rows)
	if err != nil {
		return nil, nil, err
	}
	return out, resultFromStats(st, res.EbAbs, res.EbRel, res.TargetPSNR, res.EstimatedPSNR), nil
}

// readFull fills buf completely from fr.
func readFull(fr FieldReader, buf []float64) error {
	for off := 0; off < len(buf); {
		n, err := fr.ReadValues(buf[off:])
		off += n
		if err != nil {
			if err == io.EOF && off == len(buf) {
				return nil
			}
			if err == io.EOF {
				return fmt.Errorf("short field: %w", io.ErrUnexpectedEOF)
			}
			return err
		}
		if n == 0 {
			return fmt.Errorf("reader returned no data without error")
		}
	}
	return nil
}

// encodeConstantFrom handles the zero-range case: the stream is a
// constant header carrying the first value; the reader is drained to
// honor the read-once contract.
func encodeConstantFrom(fr FieldReader, spec FieldSpec, mode Mode, res plan.Resolution) ([]byte, *Result, error) {
	var first [1]float64
	n, err := fr.ReadValues(first[:])
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if n == 0 {
		first[0] = spec.Min
	}
	// Drain the remainder so the reader's stream position is consistent.
	sink := make([]float64, 4096)
	for {
		_, err := fr.ReadValues(sink)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
	}
	out, st := codec.ConstantStream(spec.Name, spec.Precision, spec.Dims, mode, first[0])
	return out, resultFromStats(st, res.EbAbs, res.EbRel, res.TargetPSNR, res.EstimatedPSNR), nil
}
