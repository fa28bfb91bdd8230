package main

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"io"
	"math"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/huffman"
	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/transform"
)

// replayer re-runs the layers below codec on the chunks of finished
// streams. Those layers have no hook reachable from outside the module's
// public packages, so the traced run calls their public functions itself
// on the same chunk data, at each chunk's settled bound, and labels the
// spans under "replay.*" parents:
//
//   - kernels.MinMax, PredictQuantizeRow{s4,s2,} and CountLanes4 on the
//     chunk values (encode), ReconstructRow{s4,s2,} on the codes (decode);
//   - huffman.EncodeLanes4 / DecodeLanes4Into on those codes;
//   - deflate.Encoder.AppendEncode on the Huffman block and the literal
//     bytes, and stdlib inflate on its output;
//   - transform.DCT.Forward3D / Inverse3D over the otc chunks' blocks;
//   - the codec's own CompressChunk / DecompressChunkInto /
//     AssembleStream, which the stage replays are compared against.
//
// Every replayed output is checked (round trips bit-exact, replayed
// chunk payloads byte-identical to the stream's), through the tally.
type replayer struct {
	tr   *tracer
	tl   *tally
	sc   *codec.Scratch
	hsc  *huffman.Scratch
	hds  *huffman.DecodeScratch
	defl *deflate.Encoder

	chunks, payloadBytes       int64
	points, bytesComputed      int64
	syms, huffBytes            int64
	deflateIn, deflateOut      int64
	szEncodeParts, szDecodeSum float64 // summed stage time, s
	szChunkEncode, szChunkDec  float64 // codec time on the same sz chunks, s
}

func newReplayer(tr *tracer, tl *tally) *replayer {
	return &replayer{
		tr: tr, tl: tl,
		sc:   codec.NewScratch(),
		hsc:  huffman.NewScratch(),
		hds:  huffman.NewDecodeScratch(),
		defl: deflate.NewEncoder(),
	}
}

// stream replays every chunk of blob, the compressed form of orig;
// decoded is blob's full decode, the reference for chunk decodes.
func (r *replayer) stream(orig, decoded *field.Field, blob []byte) {
	h, err := codec.ParseHeader(blob)
	if err != nil {
		r.tl.fail("replay %s: parse: %v", orig.Name, err)
		return
	}
	if len(h.Chunks) == 0 {
		return
	}
	c, _ := codec.Lookup(h.Codec)
	cc, ok := c.(codec.ChunkCodec)
	if !ok || (h.Codec != codec.IDLorenzo && h.Codec != codec.IDOTC) {
		return
	}
	root := r.tr.begin("replay.stream", -1)
	defer r.tr.end(root)
	inner := h.InnerPoints()
	payloads := make([][]byte, len(h.Chunks))
	for ci := range h.Chunks {
		ck := h.Chunks[ci]
		lo, hi := ck.RowStart*inner, (ck.RowStart+ck.Rows)*inner
		data := orig.Data[lo:hi]
		dims := h.ChunkDims(ci)
		payload, err := codec.ChunkPayload(blob, h, ci)
		if err != nil {
			r.tl.fail("replay %s chunk %d: %v", orig.Name, ci, err)
			return
		}
		payloads[ci] = payload
		r.chunks++
		r.payloadBytes += int64(len(payload))
		opt := codec.Options{ErrorBound: h.ChunkBound(ci), Capacity: h.Capacity, Workers: 1}

		sz := h.Codec == codec.IDLorenzo
		if len(dims) == 3 {
			if sz {
				r.szStages(root, data, dims, opt.ErrorBound, h.Capacity, h.Precision)
			} else {
				r.dctBlocks(root, data, dims)
			}
		}
		name := "otc.chunk_encode"
		if sz {
			name = "codec.chunk_encode"
		}
		t := r.tr.begin(name, root)
		got, _, err := cc.CompressChunk(context.Background(), data, dims, h.Precision, opt, r.sc)
		if d := r.tr.end(t).Seconds(); sz {
			r.szChunkEncode += d
		}
		r.checkPayload(orig.Name, ci, got, payload, err)

		dst := make([]float64, hi-lo)
		t = r.tr.begin("codec.chunk_decode", root)
		err = codec.DecompressChunkInto(dst, h, ci, payload, r.sc)
		if d := r.tr.end(t).Seconds(); sz {
			r.szChunkDec += d
		}
		switch {
		case err != nil:
			r.tl.fail("replay %s chunk %d: decode: %v", orig.Name, ci, err)
		case !sameBits(dst, decoded.Data[lo:hi]):
			r.tl.fail("replay %s chunk %d: chunk decode differs from the full decode", orig.Name, ci)
		default:
			r.tl.ok()
		}
	}
	t := r.tr.begin("codec.assemble", root)
	again, err := codec.AssembleStream(h, payloads)
	r.tr.end(t)
	switch {
	case err != nil:
		r.tl.fail("replay %s: assemble: %v", orig.Name, err)
	case !bytes.Equal(again, blob):
		r.tl.fail("replay %s: reassembled stream differs", orig.Name)
	default:
		r.tl.ok()
	}
}

// checkPayload compares a replayed CompressChunk payload with the
// stream's own.
func (r *replayer) checkPayload(name string, ci int, got, want []byte, err error) {
	switch {
	case err != nil:
		r.tl.fail("replay %s chunk %d: compress: %v", name, ci, err)
	case !bytes.Equal(got, want):
		r.tl.fail("replay %s chunk %d: replayed payload differs from the stream's", name, ci)
	default:
		r.tl.ok()
	}
}

// szStages replays the sz encode and decode stages of one 3-D chunk
// through the kernels, huffman and deflate packages. Border rows (first
// plane, first column) go through a guarded scalar stencil inside sz and
// are not replayed: here they pass through unquantized with the
// zero-residual code, so only interior rows reach the kernels.
func (r *replayer) szStages(root int, data []float64, dims []int, eb float64, capacity int, prec field.Precision) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 < 2 || d1 < 2 || d2 < 1 || capacity < 2 {
		return
	}
	radius := capacity / 2
	q := kernels.Quant{InvDelta: 1 / (2 * eb), Delta: 2 * eb, EB: eb, RadiusF: float64(radius), Radius: int64(radius)}
	plane, n := d1*d2, len(data)
	codes := make([]int32, n)
	recon := make([]float64, n)
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			if i == 0 || j == 0 {
				base := i*plane + j*d2
				copy(recon[base:base+d2], data[base:base+d2])
				for k := base; k < base+d2; k++ {
					codes[k] = int32(radius)
				}
			}
		}
	}
	rowLits := make([][]float64, d0*d1)
	var litBuf [4][]float64
	for l := range litBuf {
		litBuf[l] = make([]float64, 0, d2)
	}
	interior := int64((d0 - 1) * (d1 - 1) * d2)

	enc := r.tr.begin("replay.encode_chunk", root)
	t := r.tr.begin("kernels.minmax", enc)
	kernels.MinMax(data)
	r.szEncodeParts += r.tr.end(t).Seconds()

	var pq [4]kernels.PQRow
	set := func(row *kernels.PQRow, l, i, j int) {
		base := i*plane + j*d2
		*row = kernels.PQRow{
			Data: data[base : base+d2], Recon: recon[base : base+d2], Codes: codes[base : base+d2],
			Up: recon[base-d2 : base], Pl: recon[base-plane : base-plane+d2], Pu: recon[base-plane-d2 : base-plane],
			Lits: litBuf[l][:0],
		}
	}
	keep := func(row *kernels.PQRow, i, j int) {
		if len(row.Lits) > 0 {
			rowLits[i*d1+j] = append([]float64(nil), row.Lits...)
		}
	}
	t = r.tr.begin("kernels.predict_quantize", enc)
	wavefront(d0, d1,
		func(i [4]int, j [4]int) {
			for l := range pq {
				set(&pq[l], l, i[l], j[l])
			}
			kernels.PredictQuantizeRows4(&q, &pq[0], &pq[1], &pq[2], &pq[3])
			for l := range pq {
				keep(&pq[l], i[l], j[l])
			}
		},
		func(i [2]int, j [2]int) {
			set(&pq[0], 0, i[0], j[0])
			set(&pq[1], 1, i[1], j[1])
			kernels.PredictQuantizeRows2(&q, &pq[0], &pq[1])
			keep(&pq[0], i[0], j[0])
			keep(&pq[1], i[1], j[1])
		},
		func(i, j int) {
			set(&pq[0], 0, i, j)
			kernels.PredictQuantizeRow(&q, &pq[0])
			keep(&pq[0], i, j)
		})
	r.szEncodeParts += r.tr.end(t).Seconds()

	var lanes [4][]int64
	for l := range lanes {
		lanes[l] = make([]int64, capacity)
	}
	t = r.tr.begin("kernels.count", enc)
	kernels.CountLanes4(lanes[0], lanes[1], lanes[2], lanes[3], codes)
	r.szEncodeParts += r.tr.end(t).Seconds()

	t = r.tr.begin("huffman.encode", enc)
	huff, err := huffman.EncodeLanes4(nil, codes, capacity-1, r.hsc)
	r.szEncodeParts += r.tr.end(t).Seconds()
	if err != nil {
		r.tr.end(enc)
		r.tl.fail("replay huffman encode: %v", err)
		return
	}

	// Like sz, DEFLATE both the Huffman block (kept only when it wins,
	// codec.CodesDeflateWins) and the literal bytes.
	lits := litBytes(rowLits, prec)
	t = r.tr.begin("deflate.encode", enc)
	comp := r.defl.AppendEncode(nil, huff)
	defl := r.defl.AppendEncode(nil, lits)
	r.szEncodeParts += r.tr.end(t).Seconds()
	r.tr.end(enc)
	codesWin := codec.CodesDeflateWins(len(huff), len(comp))

	dec := r.tr.begin("replay.decode_chunk", root)
	t = r.tr.begin("huffman.decode", dec)
	got, _, err := huffman.DecodeLanes4Into(make([]int32, 0, n), huff, r.hds)
	r.szDecodeSum += r.tr.end(t).Seconds()
	t = r.tr.begin("flate.inflate", dec)
	inflated, ierr := io.ReadAll(flate.NewReader(bytes.NewReader(defl)))
	codesBack := huff
	if codesWin && ierr == nil {
		codesBack, ierr = io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	}
	r.szDecodeSum += r.tr.end(t).Seconds()

	out := make([]float64, n)
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			if i == 0 || j == 0 {
				base := i*plane + j*d2
				copy(out[base:base+d2], recon[base:base+d2])
			}
		}
	}
	var rr [4]kernels.RRRow
	setR := func(row *kernels.RRRow, i, j int) {
		base := i*plane + j*d2
		*row = kernels.RRRow{
			Out: out[base : base+d2], Codes: codes[base : base+d2],
			Up: out[base-d2 : base], Pl: out[base-plane : base-plane+d2], Pu: out[base-plane-d2 : base-plane],
			Lits: rowLits[i*d1+j],
		}
	}
	t = r.tr.begin("kernels.reconstruct", dec)
	wavefront(d0, d1,
		func(i [4]int, j [4]int) {
			for l := range rr {
				setR(&rr[l], i[l], j[l])
			}
			kernels.ReconstructRows4(&q, &rr[0], &rr[1], &rr[2], &rr[3])
		},
		func(i [2]int, j [2]int) {
			setR(&rr[0], i[0], j[0])
			setR(&rr[1], i[1], j[1])
			kernels.ReconstructRows2(&q, &rr[0], &rr[1])
		},
		func(i, j int) {
			setR(&rr[0], i, j)
			kernels.ReconstructRow(&q, &rr[0])
		})
	r.szDecodeSum += r.tr.end(t).Seconds()
	r.tr.end(dec)

	switch {
	case err != nil || !equalInt32(got, codes):
		r.tl.fail("replay huffman round trip differs (err %v)", err)
	case ierr != nil || !bytes.Equal(inflated, lits) || !bytes.Equal(codesBack, huff):
		r.tl.fail("replay deflate round trip differs (err %v)", ierr)
	case !sameBits(out, recon):
		r.tl.fail("replay reconstruction differs from the predict-quantize reconstruction")
	default:
		r.tl.ok()
	}
	r.points += interior
	// Computed bytes moved, from array sizes: predict-quantize reads the
	// value and three neighbor rows and writes recon and code (44 B/pt);
	// reconstruction reads the code and three neighbor rows and writes
	// recon (36 B/pt); MinMax reads 8 B/pt; the count reads 4 B/pt.
	r.bytesComputed += interior*(44+36) + int64(n)*(8+4)
	r.syms += int64(n)
	r.huffBytes += int64(len(huff))
	r.deflateIn += int64(len(huff) + len(lits))
	r.deflateOut += int64(len(comp) + len(defl))
}

// dctBlocks replays the otc transform stage: every full 8×8×8 block of
// the chunk through DCT Forward3D and back through Inverse3D.
func (r *replayer) dctBlocks(root int, data []float64, dims []int) {
	const b = 8
	d, err := transform.NewDCT(b)
	if err != nil {
		r.tl.fail("replay dct: %v", err)
		return
	}
	var blocks [][]float64
	for z := 0; z+b <= dims[0]; z += b {
		for y := 0; y+b <= dims[1]; y += b {
			for x := 0; x+b <= dims[2]; x += b {
				blk := make([]float64, b*b*b)
				for i := 0; i < b; i++ {
					for j := 0; j < b; j++ {
						base := ((z+i)*dims[1]+y+j)*dims[2] + x
						copy(blk[(i*b+j)*b:(i*b+j+1)*b], data[base:base+b])
					}
				}
				blocks = append(blocks, blk)
			}
		}
	}
	if len(blocks) == 0 {
		return
	}
	coef := make([][]float64, len(blocks))
	for i := range coef {
		coef[i] = make([]float64, b*b*b)
	}
	t := r.tr.begin("transform.forward", root)
	for i, blk := range blocks {
		d.Forward3D(coef[i], blk)
	}
	r.tr.end(t)
	back := make([]float64, b*b*b)
	worst := 0.0
	t = r.tr.begin("transform.inverse", root)
	for i, blk := range blocks {
		d.Inverse3D(back, coef[i])
		for k := range back {
			scale := math.Max(1, math.Abs(blk[k]))
			worst = math.Max(worst, math.Abs(back[k]-blk[k])/scale)
		}
	}
	r.tr.end(t)
	if worst > 1e-9 {
		r.tl.fail("replay dct round trip error %g", worst)
	} else {
		r.tl.ok()
	}
}

// wavefront visits the interior rows (i, j ≥ 1) of a d0×d1 row grid in
// the anti-diagonal order the sz pipeline schedules its fused kernels in:
// rows sharing a diagonal are independent and are handed out in quads,
// then a pair, then a single.
func wavefront(d0, d1 int, quad func(i, j [4]int), pair func(i, j [2]int), single func(i, j int)) {
	for d := 2; d <= (d0-1)+(d1-1); d++ {
		iLo, iHi := max(1, d-(d1-1)), min(d-1, d0-1)
		i := iLo
		for ; i+3 <= iHi; i += 4 {
			quad([4]int{i, i + 1, i + 2, i + 3}, [4]int{d - i, d - i - 1, d - i - 2, d - i - 3})
		}
		if i+1 <= iHi {
			pair([2]int{i, i + 1}, [2]int{d - i, d - i - 1})
			i += 2
		}
		if i <= iHi {
			single(i, d-i)
		}
	}
}

// litBytes lays the literals out in row (scan) order at the field's
// precision, little-endian — the bytes sz hands to DEFLATE.
func litBytes(rows [][]float64, prec field.Precision) []byte {
	var out []byte
	for _, row := range rows {
		for _, v := range row {
			if prec == fixedpsnr.Float32 {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
			} else {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// layerMetrics writes the replay's per-layer metrics into m.
func (r *replayer) layerMetrics(m map[string]float64, stats []spanStat) {
	m["codec.chunks"] = float64(r.chunks)
	m["codec.payload_bytes"] = float64(r.payloadBytes)
	for _, name := range []string{
		"codec.chunk_encode", "codec.chunk_decode", "codec.assemble",
		"kernels.predict_quantize", "kernels.reconstruct", "kernels.minmax", "kernels.count",
		"huffman.encode", "huffman.decode", "deflate.encode", "flate.inflate",
		"otc.chunk_encode", "transform.forward", "transform.inverse",
	} {
		m[name+"_s"] = spanTotal(stats, name)
	}
	m["kernels.points"] = float64(r.points)
	m["kernels.bytes_computed"] = float64(r.bytesComputed)
	m["huffman.syms"] = float64(r.syms)
	if r.syms > 0 {
		m["huffman.bits_per_sym"] = 8 * float64(r.huffBytes) / float64(r.syms)
	}
	m["deflate.in_bytes"] = float64(r.deflateIn)
	m["deflate.out_bytes"] = float64(r.deflateOut)
	if r.szChunkEncode > 0 {
		m["replay.encode_coverage"] = r.szEncodeParts / r.szChunkEncode
	}
	if r.szChunkDec > 0 {
		m["replay.decode_coverage"] = r.szDecodeSum / r.szChunkDec
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
