package codec

import (
	"fmt"
	"math"

	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/parallel"
)

// MinChunkPoints is the smallest chunk worth paying a Huffman table and a
// chunk-table entry for. Options.ChunkPoints below this floor are
// rejected by validation: each chunk carries its own entropy tables
// (sized by Capacity — roughly 17 bytes per quantization interval during
// construction), so tiny chunks make the fixed per-chunk overhead
// dominate the payload.
const MinChunkPoints = 1 << 14

// DefaultChunkPoints is the chunk size the streaming encoder uses when
// Options.ChunkPoints is zero: big enough that per-chunk overhead is
// negligible, small enough that a bounded window of in-flight chunks
// keeps encoder memory in the tens of megabytes.
const DefaultChunkPoints = 1 << 18

// ChunkSpans partitions dims[0] into the row spans the chunked container
// tiles the field with, honoring (in priority order) an explicit
// ChunkRows, a target ChunkPoints, or — when neither is set — a spread
// over the worker count, which preserves the pre-chunking parallel slab
// behavior for in-memory encodes.
func ChunkSpans(dims []int, opt Options) [][2]int {
	rows := dims[0]
	if opt.ChunkRows > 0 {
		return parallel.Chunks(rows, opt.ChunkRows)
	}
	if opt.ChunkPoints > 0 {
		return parallel.Chunks(rows, RowsForChunkPoints(dims, opt.ChunkPoints))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers <= 1 || rows == 1 {
		return [][2]int{{0, rows}}
	}
	n := workers
	if n > rows {
		n = rows
	}
	out := make([][2]int, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := parallel.Partition(rows, n, w)
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// RowsForChunkPoints converts a target chunk size in points into a row
// count along dims[0] (at least 1, at most dims[0]).
func RowsForChunkPoints(dims []int, chunkPoints int) int {
	inner := 1
	for _, d := range dims[1:] {
		inner *= d
	}
	rows := (chunkPoints + inner - 1) / inner
	if rows < 1 {
		rows = 1
	}
	if rows > dims[0] {
		rows = dims[0]
	}
	return rows
}

// ChunkPlanner is the optional interface of a Codec whose tiling
// deviates from the generic ChunkSpans — otc rounds the chunk heights of
// ChunkPoints and of the Workers-derived default up to its transform
// block edge so chunk boundaries do not shear blocks. Container-assembling
// callers (the streaming encoder) must use the codec's planner when it
// has one, so the same options produce the same tiling on every encode
// path.
type ChunkPlanner interface {
	ChunkSpans(dims []int, opt Options) [][2]int
}

// PlanChunkSpans tiles dims[0] for the given codec: its own ChunkSpans
// when it plans its tiling, the generic partition otherwise.
func PlanChunkSpans(c Codec, dims []int, opt Options) [][2]int {
	if p, ok := c.(ChunkPlanner); ok {
		return p.ChunkSpans(dims, opt)
	}
	return ChunkSpans(dims, opt)
}

// ValueBounds scans a chunk's min and max, skipping NaNs (NaN/NaN when
// every value is NaN) — the per-chunk value range recorded in the chunk
// table. The scan is the runtime-dispatched kernels.MinMax, which
// relies on NaN comparisons being false instead of testing for NaN.
func ValueBounds(data []float64) (min, max float64) {
	min, max = kernels.MinMax(data)
	if min > max { // all NaN or empty
		return math.NaN(), math.NaN()
	}
	return min, max
}

// ChunkStats is the per-chunk outcome a Codec reports from
// CompressChunk; AssembleStream records it in the chunk table.
type ChunkStats struct {
	// Unpredictable counts points (or coefficients) stored as literals.
	Unpredictable int
	// MSE is the chunk's exact reconstruction MSE (NaN when the
	// pipeline does not measure it).
	MSE float64
	// Min and Max are the chunk's value range.
	Min, Max float64
}

// AssembleStream finalizes a chunked stream: it lays the payloads out
// back to back, fills each chunk's Off/Len/RowStart, and returns the
// marshaled header followed by the payloads. h.Chunks must already hold
// Rows and the per-chunk statistics, one entry per payload.
func AssembleStream(h *Header, payloads [][]byte) ([]byte, error) {
	if len(payloads) != len(h.Chunks) {
		return nil, fmt.Errorf("codec: %d payloads for %d chunk entries", len(payloads), len(h.Chunks))
	}
	off := 0
	rowStart := 0
	total := 0
	for i, p := range payloads {
		c := &h.Chunks[i]
		c.Off = off
		c.Len = len(p)
		c.RowStart = rowStart
		off += len(p)
		rowStart += c.Rows
		total += len(p)
	}
	if len(h.Dims) > 0 && rowStart != h.Dims[0] {
		return nil, fmt.Errorf("codec: chunk rows sum to %d, want %d", rowStart, h.Dims[0])
	}
	head := h.Marshal()
	out := make([]byte, 0, len(head)+total)
	out = append(out, head...)
	for _, p := range payloads {
		out = append(out, p...)
	}
	h.headerLen = len(head)
	return out, nil
}

// ChunkPayload slices chunk ci's payload out of a full stream.
func ChunkPayload(data []byte, h *Header, ci int) ([]byte, error) {
	c := h.Chunks[ci]
	lo := h.PayloadOffset() + c.Off
	hi := lo + c.Len
	if lo < 0 || hi > len(data) {
		return nil, fmt.Errorf("codec: chunk %d payload [%d,%d) outside stream of %d bytes", ci, lo, hi, len(data))
	}
	return data[lo:hi:hi], nil
}

// StatsFromChunks rebuilds the aggregate Stats report from a finished
// chunked stream: compressed sizes from the stream, distortion from the
// point-count-weighted chunk MSEs, and value range from the chunk
// min/max. originalBytes is the field's nominal storage footprint.
func StatsFromChunks(h *Header, streamLen, originalBytes int) *Stats {
	st := &Stats{
		OriginalBytes:   originalBytes,
		CompressedBytes: streamLen,
		NPoints:         h.NPoints(),
		Chunks:          len(h.Chunks),
		Capacity:        h.Capacity,
		MSE:             h.AggregateMSE(),
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, c := range h.Chunks {
		st.Unpredictable += c.Unpredictable
		if c.Min < min {
			min = c.Min
		}
		if c.Max > max {
			max = c.Max
		}
	}
	if min <= max {
		st.ValueRange = max - min
	} else {
		st.ValueRange = math.NaN()
	}
	if streamLen > 0 && st.NPoints > 0 {
		st.Ratio = float64(originalBytes) / float64(streamLen)
		st.BitRate = 8 * float64(streamLen) / float64(st.NPoints)
	}
	return st
}
