package codec

import (
	"context"
	"fmt"

	"fixedpsnr/internal/field"
	"fixedpsnr/internal/parallel"
)

// The chunked container's decode side: reconstruct an axis-aligned
// sub-block of a field — the whole field being the widest one — decoding
// only the chunks the region intersects. Because chunks tile the slowest
// dimension and each chunk restarts its pipeline state, a region is
// byte-identical to the matching slice of a full decode; the cost scales
// with the intersected rows, not the field.

// Decompress reconstructs a field from any registered stream: it parses
// the header once and decodes through the chunk decoder. This is the
// single decode entry point for the public API, the archive container,
// and the CLI.
func Decompress(data []byte) (*field.Field, *Header, error) {
	return DecompressScratch(context.Background(), data, nil)
}

// DecompressScratch is Decompress drawing transient decode buffers from
// a session's sc (nil allocates fresh), under a cancellable context: a
// cancelled ctx aborts the decode within one chunk of work per worker
// and returns ctx.Err().
func DecompressScratch(ctx context.Context, data []byte, sc *Scratch) (*field.Field, *Header, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	return decompressRegion(ctx, data, h, make([]int, len(h.Dims)), h.Dims, sc)
}

// DecompressRegion reconstructs the sub-block starting at off with
// extents ext from a compressed stream, decoding only the intersecting
// chunks.
func DecompressRegion(data []byte, off, ext []int) (*field.Field, *Header, error) {
	return DecompressRegionScratch(context.Background(), data, off, ext, nil)
}

// DecompressRegionScratch is DecompressRegion drawing per-chunk decode
// transients (slab buffers, inflate windows, Huffman tables) from a
// session's sc, under a cancellable context: a cancelled ctx aborts the
// decode within one chunk of work per worker and returns ctx.Err(). A nil
// sc is valid and allocates fresh.
func DecompressRegionScratch(ctx context.Context, data []byte, off, ext []int, sc *Scratch) (*field.Field, *Header, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	return decompressRegion(ctx, data, h, off, ext, sc)
}

// decompressRegion runs the chunk decoder over a stream held in memory.
func decompressRegion(ctx context.Context, data []byte, h *Header, off, ext []int, sc *Scratch) (*field.Field, *Header, error) {
	out, err := DecompressRegionFrom(ctx, h, func(ci int) ([]byte, error) {
		return ChunkPayload(data, h, ci)
	}, off, ext, sc, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, h, nil
}

// DecompressChunkInto decodes chunk ci of a stream into dst, which must
// hold exactly ChunkPoints(ci) values — the chunk's full row slab. It
// decodes one chunk outside DecompressRegionFrom, for callers that time
// or fuzz the chunk decode alone: the benchmark harness's decode replay
// and the payload fuzz test. A constant stream has no chunks, so every
// index is out of range.
func DecompressChunkInto(dst []float64, h *Header, ci int, payload []byte, sc *Scratch) error {
	if ci < 0 || ci >= len(h.Chunks) {
		return fmt.Errorf("codec: chunk %d out of range [0,%d)", ci, len(h.Chunks))
	}
	if want := h.ChunkPoints(ci); len(dst) != want {
		return fmt.Errorf("codec: chunk %d slab is %d values, want %d", ci, len(dst), want)
	}
	c, err := chunkCodec(h)
	if err != nil {
		return err
	}
	return c.DecompressChunk(payload, h, ci, dst, sc)
}

// chunkCodec looks up the pipeline that decodes h's chunks.
func chunkCodec(h *Header) (Codec, error) {
	c, ok := Lookup(h.Codec)
	if !ok {
		return nil, fmt.Errorf("codec: no registered codec for stream ID %v", h.Codec)
	}
	return c, nil
}

// SlabSource hands DecompressRegionFrom chunk ci's full decoded slab
// (ChunkPoints(ci) values): one it already holds, or the result of
// calling decode, which reads the chunk's payload and decodes it into a
// fresh slab the source may keep. The decoder only reads the slabs a
// source returns. The serving layer's decoded-chunk cache is one.
type SlabSource func(ci int, decode func() ([]float64, error)) ([]float64, error)

// DecompressRegionFrom is the chunk decoder behind every decode: whole
// fields, regions, archive extraction, and the serving layer's cached
// region reads. payload fetches one chunk's bytes, so a caller that does
// not hold the whole stream — the archive reader — reads only the ranges
// it needs. Chunks decode in parallel, each worker from its own scratch
// shard. With a nil slabs, a chunk lying inside a region that spans every
// inner dimension decodes straight into the output, so a whole-field
// decode copies nothing; with a source, every intersected chunk's slab
// comes from it, and payload is read only when the source calls decode.
// A cancelled ctx stops the decode within one chunk per worker and
// surfaces ctx.Err().
func DecompressRegionFrom(ctx context.Context, h *Header, payload func(ci int) ([]byte, error), off, ext []int, sc *Scratch, slabs SlabSource) (*field.Field, error) {
	if err := field.ValidateRegion(h.Dims, off, ext); err != nil {
		return nil, err
	}
	if h.Codec == IDConstant {
		out := field.New(h.Name, h.Precision, ext...)
		for i := range out.Data {
			out.Data[i] = h.ConstValue
		}
		return out, nil
	}
	c, err := chunkCodec(h)
	if err != nil {
		return nil, err
	}

	rowLo, rowHi := off[0], off[0]+ext[0]
	var hit []int
	for ci := range h.Chunks {
		ck := &h.Chunks[ci]
		if ck.RowStart < rowHi && ck.RowStart+ck.Rows > rowLo {
			hit = append(hit, ci)
		}
	}
	if len(hit) == 0 {
		return nil, fmt.Errorf("codec: region rows [%d,%d) intersect no chunk", rowLo, rowHi)
	}
	direct := true // the region spans every inner dimension
	for a := 1; a < len(ext); a++ {
		direct = direct && off[a] == 0 && ext[a] == h.Dims[a]
	}

	out := field.New(h.Name, h.Precision, ext...)
	inner := h.InnerPoints()
	dstOff := make([]int, len(ext))
	err = parallel.ForEachWorkerCtx(ctx, len(hit), 0, func(w, i int) error {
		ci := hit[i]
		ck := h.Chunks[ci]
		if slabs != nil {
			slab, err := slabs(ci, func() ([]float64, error) {
				pl, err := payload(ci)
				if err != nil {
					return nil, fmt.Errorf("codec: chunk %d: %w", ci, err)
				}
				slab := make([]float64, ck.Rows*inner) // the source keeps it: never pooled
				if err := c.DecompressChunk(pl, h, ci, slab, sc.Shard(w)); err != nil {
					return nil, err
				}
				return slab, nil
			})
			if err != nil {
				return err
			}
			copyChunkRegion(out.Data, ext, dstOff, slab, h, ci, off, rowLo, rowHi)
			return nil
		}
		pl, err := payload(ci)
		if err != nil {
			return fmt.Errorf("codec: chunk %d: %w", ci, err)
		}
		wsc := sc.Shard(w)
		if direct && ck.RowStart >= rowLo && ck.RowStart+ck.Rows <= rowHi {
			lo := (ck.RowStart - rowLo) * inner
			return c.DecompressChunk(pl, h, ci, out.Data[lo:lo+ck.Rows*inner], wsc)
		}
		slab := wsc.Floats(ck.Rows * inner)
		defer wsc.PutFloats(slab)
		if err := c.DecompressChunk(pl, h, ci, slab, wsc); err != nil {
			return err
		}
		copyChunkRegion(out.Data, ext, dstOff, slab, h, ci, off, rowLo, rowHi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// copyChunkRegion copies the intersection of chunk ci's decoded slab with
// the requested region into the output block: the chunk's rows are
// clipped to the region's row window, then the inner dimensions are
// cropped while copying. The chunk decoder above crops both pooled and
// source-supplied slabs with it; CopyChunkRegion exports it.
func copyChunkRegion(dst []float64, ext, dstOff []int, slab []float64, h *Header, ci int, off []int, rowLo, rowHi int) {
	ck := h.Chunks[ci]
	lo, hi := ck.RowStart, ck.RowStart+ck.Rows
	if lo < rowLo {
		lo = rowLo
	}
	if hi > rowHi {
		hi = rowHi
	}
	srcOff := append([]int{lo - ck.RowStart}, off[1:]...)
	dOff := append([]int{lo - rowLo}, dstOff[1:]...)
	cext := append([]int{hi - lo}, ext[1:]...)
	field.CopyRegion(dst, ext, dOff, slab, h.ChunkDims(ci), srcOff, cext)
}

// CopyChunkRegion is copyChunkRegion for a caller that assembles a
// region from slabs it decoded itself — the benchmark harness's serve
// replay: copy the part of chunk ci's full decoded slab that falls inside
// the region (off, ext) into out, a region-shaped block. The chunk must
// intersect the region's row window. The serving layer does not call it;
// its cached reads go through DecompressRegionFrom with a SlabSource.
func CopyChunkRegion(out []float64, h *Header, ci int, slab []float64, off, ext []int) {
	copyChunkRegion(out, ext, make([]int, len(ext)), slab, h, ci, off, off[0], off[0]+ext[0])
}
