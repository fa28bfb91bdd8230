package codec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fixedpsnr/internal/field"
	"fixedpsnr/internal/parallel"
	"fixedpsnr/internal/quantizer"
)

// The chunked container's encode side: tile a field into row-slab
// chunks, run a subset of them through a Codec, and assemble the
// stream. Every encode path — Encode, the streaming EncodeFrom, and the
// plan layer's steering passes — holds its chunks in a Draft and runs
// them through the one chunk loop, forChunks, which schedules the
// quantize work and the entropy work here and the decode work of
// DecompressRegionFrom.

// Rows supplies the values of chunk ci of the stream h describes:
// h.ChunkPoints(ci) of them, row-major, starting at row
// h.Chunks[ci].RowStart. The chunk loop calls it serially, in subset
// order. A non-nil done is called once the chunk is compressed, so a
// source that reads into pooled buffers can recycle them.
type Rows func(h *Header, ci int) (data []float64, done func(), err error)

// FieldRows is the Rows of an in-memory field: every chunk is a
// sub-slice of data.
func FieldRows(data []float64) Rows {
	return func(h *Header, ci int) ([]float64, func(), error) {
		inner := h.InnerPoints()
		lo := h.Chunks[ci].RowStart * inner
		return data[lo : lo+h.Chunks[ci].Rows*inner], nil, nil
	}
}

// Encode compresses an in-memory field through cc: TileField, every
// chunk compressed in full, and the stream assembled. A zero value range
// yields a ConstantStream. It is the one unsteered encode entry.
func Encode(ctx context.Context, f *field.Field, cc Codec, opt Options, sc *Scratch) ([]byte, *Stats, error) {
	d, err := TileField(f, cc, opt)
	if err != nil {
		return nil, nil, err
	}
	if d == nil {
		out, st := ConstantStream(f.Name, f.Precision, f.Dims, opt.Mode, f.Data[0])
		return out, st, nil
	}
	if err := d.Run(ctx, cc, d.All(), opt, sc, FieldRows(f.Data), false); err != nil {
		return nil, nil, err
	}
	out, st, err := d.Assemble(ctx, opt.Workers, sc)
	if err != nil {
		return nil, nil, err
	}
	st.ValueRange = d.Header.ValueRange
	return out, st, nil
}

// EncodeRows tiles a field of the given dims (NewDraft), compresses
// every chunk from rows, and assembles the stream.
func EncodeRows(ctx context.Context, name string, prec field.Precision, dims []int, cc Codec, opt Options, sc *Scratch, rows Rows) ([]byte, *Stats, error) {
	d := NewDraft(name, prec, dims, cc, opt)
	if err := d.Run(ctx, cc, d.All(), opt, sc, rows, false); err != nil {
		return nil, nil, err
	}
	return d.Assemble(ctx, opt.Workers, sc)
}

// NewDraft tiles a field of the given dims with cc's chunk planner. The
// header records opt's bound, capacity (quantizer.DefaultCapacity when
// zero) and annotations under cc's first stream ID; no chunk holds data
// yet.
func NewDraft(name string, prec field.Precision, dims []int, cc Codec, opt Options) *Draft {
	if opt.Capacity == 0 {
		opt.Capacity = quantizer.DefaultCapacity
	}
	h := &Header{
		Codec:      cc.IDs()[0],
		Precision:  prec,
		Mode:       opt.Mode,
		Name:       name,
		Dims:       dims,
		EbAbs:      opt.ErrorBound,
		TargetPSNR: opt.TargetPSNR,
		ValueRange: opt.ValueRange,
		Capacity:   opt.Capacity,
	}
	if h.TargetPSNR == 0 && opt.Mode != ModePSNR {
		h.TargetPSNR = math.NaN()
	}
	spans := PlanChunkSpans(cc, dims, opt)
	h.Chunks = make([]ChunkInfo, len(spans))
	for ci, s := range spans {
		h.Chunks[ci] = ChunkInfo{RowStart: s[0], Rows: s[1] - s[0]}
	}
	return &Draft{Header: h, payloads: make([][]byte, len(spans)), quant: make([]*Quantized, len(spans))}
}

// TileField is the one whole-field tiling entry. It validates f,
// measures the value range when opt.ValueRange is zero (callers that
// already know it pass it in to skip the scan), resolves AutoCapacity
// through cc's CapacityEstimator, and returns the field's Draft. A
// constant field has no chunks: the Draft is nil and the field's stream
// is a ConstantStream.
func TileField(f *field.Field, cc Codec, opt Options) (*Draft, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if opt.ValueRange == 0 {
		_, _, opt.ValueRange = f.ValueRange()
	}
	if opt.ValueRange == 0 {
		return nil, nil
	}
	if ce, ok := cc.(CapacityEstimator); ok && opt.AutoCapacity {
		opt.Capacity = ce.EstimateCapacity(f.Data, f.Dims, opt.ErrorBound)
	}
	return NewDraft(f.Name, f.Precision, f.Dims, cc, opt), nil
}

// forChunks is the container's one chunk loop, for encode and decode.
// At most workers (non-positive: all CPUs) long-lived worker loops take
// the chunks of subset in order and call work on each. A non-nil rows
// supplies each chunk's values; it is called serially, in subset order,
// so a streaming source holds at most workers chunks at once. After the
// first failure no loop takes another chunk; a work error comes back
// naming its chunk. A cancelled ctx stops the loop within one chunk per
// worker and surfaces ctx.Err().
func forChunks(ctx context.Context, h *Header, subset []int, workers int, rows Rows, work func(ci int, data []float64) error) error {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	var mu sync.Mutex // guards next and failed, and serializes rows
	next, failed := 0, false
	loops := min(workers, len(subset))
	// Each loop checks ctx before every chunk it takes, so the loops
	// themselves start unconditionally: a chunk stays the one
	// cancellation point.
	return parallel.ForEach(loops, loops, func(int) error {
		for {
			mu.Lock()
			if next == len(subset) || failed {
				mu.Unlock()
				return nil
			}
			ci := subset[next]
			next++
			err := ctx.Err()
			var data []float64
			var done func()
			if err == nil && rows != nil {
				data, done, err = rows(h, ci)
			}
			failed = err != nil
			mu.Unlock()
			if err != nil {
				return err
			}
			err = work(ci, data)
			if done != nil {
				done()
			}
			if err != nil {
				mu.Lock()
				failed = true
				mu.Unlock()
				return fmt.Errorf("codec: chunk %d: %w", ci, err)
			}
		}
	})
}

// ConstantStream encodes a field whose every value is v: the header
// alone, under the constant pseudo-codec.
func ConstantStream(name string, prec field.Precision, dims []int, mode Mode, v float64) ([]byte, *Stats) {
	h := &Header{Codec: IDConstant, Precision: prec, Mode: mode, Name: name, Dims: dims, ConstValue: v}
	out := h.Marshal()
	n := h.NPoints()
	return out, &Stats{
		OriginalBytes:   n * prec.Bytes(),
		CompressedBytes: len(out),
		Ratio:           float64(n*prec.Bytes()) / float64(len(out)),
		BitRate:         8 * float64(len(out)) / float64(n),
		NPoints:         n,
		Chunks:          1,
	}
}

// Quantized is one chunk after a pipeline's quantize step: what
// Scratch.AppendPayload writes the chunk's payload from, and the chunk's
// statistics. Codes come from the Scratch passed to QuantizeChunk.
type Quantized struct {
	Prefix []byte
	Codes  []int32
	// MaxSym bounds every code (the quantizer's capacity−1). It sizes
	// the Huffman coder's symbol-indexed tables, not the work per chunk:
	// a table build counts only code 0 and the chunk's code window.
	MaxSym   int
	Literals []float64
	// Prec is the precision the literals are stored at.
	Prec  field.Precision
	Stats ChunkStats

	sc *Scratch // where Codes goes back once the payload is written
}

// ChunkQuantizer is the optional interface of a Codec whose
// CompressChunk is CompressQuantized: QuantizeChunk, then the
// container's entropy step. By Theorem 1 a chunk's quantization-stage
// MSE is final, so steering passes measured on distortion stop at
// QuantizeChunk and only the accepted pass is entropy-coded; a Codec
// without it is compressed in full on every pass.
type ChunkQuantizer interface {
	Codec
	// QuantizeChunk runs the chunk pipeline up to the entropy stage,
	// under CompressChunk's contract for data, dims, prec and opt. The
	// returned Codes must come from sc.Int32s; the caller owns them.
	QuantizeChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *Scratch) (Quantized, error)
}

// StagedQuantizer is the optional interface of a ChunkQuantizer whose
// QuantizeChunk is a stage that does not depend on the bound followed by
// a quantize loop over the stage's output. A Draft that holds stages
// (HoldStages, as every steering loop's does) runs the stage once per
// chunk and keeps its output across passes, so each later pass runs only
// the loop. CompressChunk still runs stage, loop and entropy step, so
// Encode, EncodeRows and the streaming encoder hold no stage output past
// the chunk that made it.
type StagedQuantizer interface {
	ChunkQuantizer
	// StageChunk runs the bound-independent part of QuantizeChunk, under
	// its contract for data, dims, prec and opt (whose ErrorBound it must
	// not read). The returned Values must come from sc.Floats; the caller
	// owns them.
	StageChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *Scratch) (Staged, error)
	// QuantizeStaged runs the quantize loop over st at opt.ErrorBound.
	// Its result must equal QuantizeChunk's on the chunk st was staged
	// from, and it must leave st as it found it.
	QuantizeStaged(st Staged, opt Options, sc *Scratch) (Quantized, error)
}

// Staged is one chunk's stage output: 8 bytes per point the quantize
// loop reads, and the chunk's value bounds, which the loop's statistics
// report.
type Staged struct {
	Values   []float64
	Min, Max float64

	sc *Scratch // where Values goes back once the Draft lets it go
}

// CompressQuantized is CompressChunk for a ChunkQuantizer: its quantize
// step, then the entropy step, both from sc.
func CompressQuantized(ctx context.Context, cq ChunkQuantizer, data []float64, dims []int, prec field.Precision, opt Options, sc *Scratch) ([]byte, ChunkStats, error) {
	q, err := cq.QuantizeChunk(ctx, data, dims, prec, opt, sc)
	if err != nil {
		return nil, ChunkStats{}, err
	}
	q.sc = sc
	payload, err := q.encode(sc)
	return payload, q.Stats, err
}

// encode is the entropy step: it writes q's payload from sc's staging
// buffers and returns q's codes to the scratch they came from.
func (q *Quantized) encode(sc *Scratch) ([]byte, error) {
	entropySteps.Add(1)
	payload, err := sc.AppendPayload(nil, q.Prefix, q.Codes, q.MaxSym, q.Literals, q.Prec)
	q.sc.PutInt32s(q.Codes)
	return payload, err
}

// entropySteps counts the chunks the entropy step has coded. Tests use
// it to prove that steering passes measured on distortion stop at
// quantization.
var entropySteps atomic.Int64

// EntropySteps returns the number of chunks the container's entropy
// step has coded so far, process-wide.
func EntropySteps() int64 { return entropySteps.Load() }

// CapacityEstimator is the optional interface of a Codec that
// resolves Options.AutoCapacity. TileField calls it over the whole field
// before tiling, so every chunk shares one quantizer geometry; codecs
// without it ignore AutoCapacity.
type CapacityEstimator interface {
	EstimateCapacity(data []float64, dims []int, ebAbs float64) int
}

// Draft is a chunked stream under construction: its header and chunk
// table plus, per chunk, either the finished payload or the quantized
// form still awaiting the entropy step, and, once HoldStages is called,
// the stage output of a StagedQuantizer. Steering loops keep one Draft
// across passes and rewrite chunks in place; Assemble entropy-codes what
// is still quantized, once, and writes the stream. A Draft that holds
// quantized chunks or stage output must be released, or they never
// return to their scratch.
type Draft struct {
	Header   *Header
	payloads [][]byte
	quant    []*Quantized // non-nil: the chunk awaits the entropy step
	hold     bool         // HoldStages was called
	stages   []Staged     // each chunk's held stage output, made by the first Run that holds one
}

// All lists every chunk index of the draft, in order.
func (d *Draft) All() []int {
	all := make([]int, len(d.Header.Chunks))
	for ci := range all {
		all[ci] = ci
	}
	return all
}

// HoldStages makes every later Run through a StagedQuantizer keep each
// chunk's stage output until Release, so a chunk's stage runs on its
// first pass only. That costs 8 bytes per point of the field, so only
// steering loops, which run several passes over one field, hold stages.
func (d *Draft) HoldStages() { d.hold = true }

// Run runs the chunks listed in subset through cc at opt.ErrorBound and
// the header's capacity, reading their values from rows, and records
// each one's statistics and payload. With quantize set and cc a
// ChunkQuantizer, the chunks stop at quantization instead: they keep
// their quantized form until EntropyCode or Assemble writes their
// payloads. When the Draft holds stages and cc is a StagedQuantizer, a
// chunk's quantize step is its held stage output's quantize loop, the
// stage running only on the chunk's first Run. Any earlier quantized
// form or payload of those chunks is dropped; other chunks are
// untouched.
func (d *Draft) Run(ctx context.Context, cc Codec, subset []int, opt Options, sc *Scratch, rows Rows, quantize bool) error {
	cq, ok := cc.(ChunkQuantizer)
	quantize = quantize && ok
	_, staged := cc.(StagedQuantizer)
	if staged = staged && d.hold; staged && d.stages == nil {
		d.stages = make([]Staged, len(d.Header.Chunks))
	}
	opt.Capacity = d.Header.Capacity // every chunk shares the container's quantizer geometry
	return forChunks(ctx, d.Header, subset, opt.Workers, rows, func(ci int, data []float64) error {
		d.drop(ci)
		var cst ChunkStats
		if quantize || staged {
			q, err := d.quantize(ctx, cq, staged, ci, data, opt, sc)
			if err != nil {
				return err
			}
			q.sc = sc
			cst = q.Stats
			if quantize {
				held := q // a copy, so q stays on the stack when it is entropy-coded here
				d.quant[ci] = &held
			} else {
				payload, err := q.encode(sc)
				if err != nil {
					return err
				}
				d.setPayload(ci, payload)
			}
		} else {
			payload, st, err := cc.CompressChunk(ctx, data, d.Header.ChunkDims(ci), d.Header.Precision, opt, sc)
			if err != nil {
				return err
			}
			d.setPayload(ci, payload)
			cst = st
		}
		ck := &d.Header.Chunks[ci]
		ck.Unpredictable = cst.Unpredictable
		ck.MSE = cst.MSE
		ck.Min, ck.Max = cst.Min, cst.Max
		return nil
	})
}

// quantize is chunk ci's quantize step: with staged, the quantize loop
// over the chunk's held stage output, staging the chunk first if no pass
// has yet; otherwise QuantizeChunk.
func (d *Draft) quantize(ctx context.Context, cq ChunkQuantizer, staged bool, ci int, data []float64, opt Options, sc *Scratch) (Quantized, error) {
	dims := d.Header.ChunkDims(ci)
	if !staged {
		return cq.QuantizeChunk(ctx, data, dims, d.Header.Precision, opt, sc)
	}
	sq := cq.(StagedQuantizer)
	st := &d.stages[ci]
	if st.Values == nil {
		s, err := sq.StageChunk(ctx, data, dims, d.Header.Precision, opt, sc)
		if err != nil {
			return Quantized{}, err
		}
		s.sc = sc
		*st = s
	}
	return sq.QuantizeStaged(*st, opt, sc)
}

// setPayload records chunk ci's finished payload.
func (d *Draft) setPayload(ci int, payload []byte) {
	d.payloads[ci] = payload
	d.Header.Chunks[ci].Len = len(payload)
}

// EntropyCode runs the entropy step over the chunks of subset still
// held quantized, writing their payloads and lengths, on at most workers
// goroutines.
func (d *Draft) EntropyCode(ctx context.Context, subset []int, workers int, sc *Scratch) error {
	var pending []int
	for _, ci := range subset {
		if d.quant[ci] != nil {
			pending = append(pending, ci)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	return forChunks(ctx, d.Header, pending, workers, nil, func(ci int, _ []float64) error {
		q := d.quant[ci]
		d.quant[ci] = nil
		payload, err := q.encode(sc)
		if err != nil {
			return err
		}
		d.setPayload(ci, payload)
		return nil
	})
}

// Assemble entropy-codes every chunk still held quantized and returns
// the stream — the header followed by the payloads — and its stats. Held
// stage output stays until Release: a steering loop assembles to measure
// a pass's bytes and may run another pass.
func (d *Draft) Assemble(ctx context.Context, workers int, sc *Scratch) ([]byte, *Stats, error) {
	if err := d.EntropyCode(ctx, d.All(), workers, sc); err != nil {
		return nil, nil, err
	}
	out, err := AssembleStream(d.Header, d.payloads)
	if err != nil {
		return nil, nil, err
	}
	return out, StatsFromChunks(d.Header, len(out), d.Header.NPoints()*d.Header.Precision.Bytes()), nil
}

// Release returns the codes of every chunk still held quantized, and
// every held stage output, to the scratch they came from. A nil Draft
// holds none.
func (d *Draft) Release() {
	if d == nil {
		return
	}
	for ci := range d.quant {
		d.drop(ci)
	}
	for ci, st := range d.stages {
		st.sc.PutFloats(st.Values)
		d.stages[ci] = Staged{}
	}
}

// drop returns chunk ci's codes, if it holds any.
func (d *Draft) drop(ci int) {
	if q := d.quant[ci]; q != nil {
		q.sc.PutInt32s(q.Codes)
		d.quant[ci] = nil
	}
}
