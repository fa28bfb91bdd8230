package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"

	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/huffman"
)

// Scratch is the reusable compression state a session-style caller (an
// Encoder in the public API) threads through repeated Compress calls so
// the hot path stops allocating its large transient buffers fresh every
// time: quantization-code slices, reconstruction buffers, transform block
// buffers, pre-DEFLATE staging bytes, output buffers, Huffman tables,
// DEFLATE encoders, and inflate readers.
//
// Every worker shares the pools: each chunk loop's workers, and every
// request handler of a session, draw from the one Scratch they were
// handed. The pools are sync.Pools, which keep a per-P cache and are
// safe for concurrent use, so a single Encoder shared across goroutines
// needs no per-worker copy.
//
// A nil *Scratch is valid everywhere: getters fall back to plain
// allocation and puts become no-ops, which is exactly the behavior of the
// one-shot (non-session) API.
type Scratch struct {
	int32s   sync.Pool // *[]int32
	floats   sync.Pool // *[]float64
	bytes    sync.Pool // *[]byte
	bufs     sync.Pool // *bytes.Buffer
	huffs    sync.Pool // *huffman.Scratch
	huffDecs sync.Pool // *huffman.DecodeScratch
	flateRs  sync.Pool // io.ReadCloser + flate.Resetter
	deflates sync.Pool // *deflate.Encoder
}

// NewScratch returns an empty scratch pool set.
func NewScratch() *Scratch { return &Scratch{} }

// Int32s returns an int32 slice of length n — the element type of the
// quantization-code buffers, which at tens of millions of points per
// field halves the memory traffic of every pass over the codes compared
// to a machine-word slice. Contents are unspecified; the caller must
// fully overwrite it.
func (s *Scratch) Int32s(n int) []int32 {
	if s != nil {
		if v, ok := s.int32s.Get().(*[]int32); ok && cap(*v) >= n {
			return (*v)[:n]
		}
	}
	return make([]int32, n)
}

// PutInt32s returns a slice obtained from Int32s to the pool.
func (s *Scratch) PutInt32s(p []int32) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.int32s.Put(&p)
}

// Floats returns a float64 slice of length n. Contents are unspecified;
// the caller must fully overwrite it.
func (s *Scratch) Floats(n int) []float64 {
	if s != nil {
		if v, ok := s.floats.Get().(*[]float64); ok && cap(*v) >= n {
			return (*v)[:n]
		}
	}
	return make([]float64, n)
}

// PutFloats returns a slice obtained from Floats to the pool.
func (s *Scratch) PutFloats(p []float64) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.floats.Put(&p)
}

// Bytes returns an empty byte slice with at least capHint capacity, for
// append-style staging buffers.
func (s *Scratch) Bytes(capHint int) []byte {
	if s != nil {
		if v, ok := s.bytes.Get().(*[]byte); ok {
			if cap(*v) >= capHint {
				return (*v)[:0]
			}
			// Too small for this request; drop it and allocate. Pool
			// contents converge on the working-set size quickly.
		}
	}
	return make([]byte, 0, capHint)
}

// PutBytes returns a slice obtained from Bytes to the pool. The caller
// must no longer reference it (or any slice sharing its backing array).
func (s *Scratch) PutBytes(p []byte) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.bytes.Put(&p)
}

// Buffer returns a reset bytes.Buffer.
func (s *Scratch) Buffer() *bytes.Buffer {
	if s != nil {
		if v, ok := s.bufs.Get().(*bytes.Buffer); ok {
			v.Reset()
			return v
		}
	}
	return &bytes.Buffer{}
}

// PutBuffer returns a buffer obtained from Buffer to the pool. The caller
// must have copied out any bytes it still needs.
func (s *Scratch) PutBuffer(b *bytes.Buffer) {
	if s == nil || b == nil {
		return
	}
	s.bufs.Put(b)
}

// Huffman returns a reusable Huffman construction scratch (nil when s is
// nil, which huffman.EncodeLanes4 accepts). Each instance serves one
// encode at a time; get one per in-flight chunk and put it back after.
func (s *Scratch) Huffman() *huffman.Scratch {
	if s == nil {
		return nil
	}
	if v, ok := s.huffs.Get().(*huffman.Scratch); ok {
		return v
	}
	return huffman.NewScratch()
}

// PutHuffman returns a scratch obtained from Huffman to the pool.
func (s *Scratch) PutHuffman(h *huffman.Scratch) {
	if s == nil || h == nil {
		return
	}
	s.huffs.Put(h)
}

// HuffDecode returns a reusable Huffman decode scratch (nil when s is
// nil, which huffman.DecodeInto accepts). Each instance serves one decode
// at a time; get one per in-flight chunk and put it back after.
func (s *Scratch) HuffDecode() *huffman.DecodeScratch {
	if s == nil {
		return nil
	}
	if v, ok := s.huffDecs.Get().(*huffman.DecodeScratch); ok {
		return v
	}
	return huffman.NewDecodeScratch()
}

// PutHuffDecode returns a scratch obtained from HuffDecode to the pool.
func (s *Scratch) PutHuffDecode(d *huffman.DecodeScratch) {
	if s == nil || d == nil {
		return
	}
	s.huffDecs.Put(d)
}

// FlateReader returns a DEFLATE reader over r, reusing a pooled reader's
// window state when one is available (flate readers allocate ~50 KB of
// history and dictionary per NewReader, which dominates small-chunk
// decode profiles).
func (s *Scratch) FlateReader(r io.Reader) io.ReadCloser {
	if s != nil {
		if v, ok := s.flateRs.Get().(io.ReadCloser); ok {
			v.(flate.Resetter).Reset(r, nil)
			return v
		}
	}
	return flate.NewReader(r)
}

// PutFlateReader returns a reader obtained from FlateReader to the pool.
// The caller must have called Close already.
func (s *Scratch) PutFlateReader(fr io.ReadCloser) {
	if s == nil || fr == nil {
		return
	}
	if _, ok := fr.(flate.Resetter); !ok {
		return
	}
	s.flateRs.Put(fr)
}

// Deflater returns a pooled purpose-built DEFLATE encoder (the
// internal/deflate back-end). An Encoder carries its hash table, token
// buffers, and code tables — pooling them keeps the encode hot path
// allocation-free.
func (s *Scratch) Deflater() *deflate.Encoder {
	if s != nil {
		if v, ok := s.deflates.Get().(*deflate.Encoder); ok {
			return v
		}
	}
	return deflate.NewEncoder()
}

// PutDeflater returns an encoder obtained from Deflater to the pool.
func (s *Scratch) PutDeflater(e *deflate.Encoder) {
	if s == nil || e == nil {
		return
	}
	s.deflates.Put(e)
}

// AppendDeflate compresses src into a complete DEFLATE stream appended
// to dst and returns the extended slice, through a pooled purpose-built
// internal/deflate encoder (entropy-gated match search, one-pass dynamic
// Huffman). Its output is standard DEFLATE, fuzzed against the stock
// compress/flate inflater.
func (s *Scratch) AppendDeflate(dst, src []byte) []byte {
	e := s.Deflater()
	dst = e.AppendEncode(dst, src)
	s.PutDeflater(e)
	return dst
}
