package codec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// slabMap is a map-backed SlabSource that counts the requests for each
// chunk, the way a decoded-chunk cache would see them.
type slabMap struct {
	mu    sync.Mutex
	slabs map[int][]float64
	calls map[int]int
}

func newSlabMap() *slabMap {
	return &slabMap{slabs: map[int][]float64{}, calls: map[int]int{}}
}

func (m *slabMap) source(ci int, decode func() ([]float64, error)) ([]float64, error) {
	m.mu.Lock()
	m.calls[ci]++
	slab, ok := m.slabs[ci]
	m.mu.Unlock()
	if ok {
		return slab, nil
	}
	slab, err := decode()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.slabs[ci] = slab
	m.mu.Unlock()
	return slab, nil
}

// regionField is a smooth, strictly positive 3-D field (pwrel-safe).
func regionField(dims ...int) *field.Field {
	f := field.New("region", field.Float64, dims...)
	for i := range f.Data {
		f.Data[i] = 2 + math.Sin(float64(i)/37)*math.Cos(float64(i)/11)
	}
	return f
}

// regionStreams encodes one field through sz, otc and sz's
// pointwise-relative path, each tiled into its own chunks.
func regionStreams(t *testing.T) map[string][]byte {
	t.Helper()
	f := regionField(29, 12, 10)
	szc, _ := codec.ByName("sz")
	otcc, _ := codec.ByName("otc")
	ctx := context.Background()
	out := map[string][]byte{}
	var err error
	if out["sz"], _, err = codec.Encode(ctx, f, szc, codec.Options{ErrorBound: 1e-3, ChunkRows: 5, Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if out["otc"], _, err = codec.Encode(ctx, f, otcc, codec.Options{ErrorBound: 1e-3, ChunkRows: 8, Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if out["pwrel"], _, err = szc.(codec.PWRelCodec).CompressPWRel(ctx, f, 1e-3, codec.Options{Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func payloadOf(blob []byte, h *codec.Header) func(int) ([]byte, error) {
	return func(ci int) ([]byte, error) { return codec.ChunkPayload(blob, h, ci) }
}

// intersected lists the chunks whose rows meet [off[0], off[0]+ext[0]).
func intersected(h *codec.Header, off, ext []int) map[int]bool {
	hit := map[int]bool{}
	for ci, ck := range h.Chunks {
		if ck.RowStart < off[0]+ext[0] && ck.RowStart+ck.Rows > off[0] {
			hit[ci] = true
		}
	}
	return hit
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

// A SlabSource changes where each chunk's slab comes from, never the
// output: across sz, otc and pwrel streams and full, row-partial,
// inner-cropped and single-row regions, the source-fed decode matches the
// nil-source decode bit for bit, asks for each intersected chunk exactly
// once, and on a second pass serves every chunk without a payload read.
func TestDecompressRegionFromSlabSource(t *testing.T) {
	ctx := context.Background()
	regions := []struct {
		name     string
		off, ext []int
	}{
		{"full", []int{0, 0, 0}, []int{29, 12, 10}},
		{"row-partial", []int{3, 0, 0}, []int{22, 12, 10}},
		{"inner-cropped", []int{2, 1, 2}, []int{26, 9, 5}},
		{"single-row", []int{14, 0, 0}, []int{1, 12, 10}},
	}
	for name, blob := range regionStreams(t) {
		h, err := codec.ParseHeader(blob)
		if err != nil {
			t.Fatal(err)
		}
		if name != "pwrel" && len(h.Chunks) < 3 {
			t.Fatalf("%s: %d chunks, want >= 3", name, len(h.Chunks))
		}
		for _, r := range regions {
			t.Run(fmt.Sprintf("%s/%s", name, r.name), func(t *testing.T) {
				want, err := codec.DecompressRegionFrom(ctx, h, payloadOf(blob, h), r.off, r.ext, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				src := newSlabMap()
				got, err := codec.DecompressRegionFrom(ctx, h, payloadOf(blob, h), r.off, r.ext, codec.NewScratch(), src.source)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Data, want.Data) || got.Name != want.Name || got.Precision != want.Precision {
					t.Fatal("source-fed region differs from the nil-source decode")
				}
				hit := intersected(h, r.off, r.ext)
				for ci, n := range src.calls {
					if !hit[ci] || n != 1 {
						t.Fatalf("chunk %d requested %d times; intersected chunks %v", ci, n, hit)
					}
				}
				if len(src.calls) != len(hit) {
					t.Fatalf("%d chunks requested, want %d", len(src.calls), len(hit))
				}

				noRead := func(ci int) ([]byte, error) {
					t.Errorf("payload of cached chunk %d read", ci)
					return nil, errors.New("unexpected payload read")
				}
				again, err := codec.DecompressRegionFrom(ctx, h, noRead, r.off, r.ext, nil, src.source)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(again.Data, want.Data) {
					t.Fatal("region from cached slabs differs from the nil-source decode")
				}
			})
		}
	}
}

// A constant stream has no chunks: it decodes without consulting the
// source.
func TestDecompressRegionFromSlabSourceConstant(t *testing.T) {
	blob, _ := codec.ConstantStream("c", field.Float32, []int{6, 5, 4}, codec.ModePSNR, 3.5)
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	off, ext := []int{1, 2, 0}, []int{4, 3, 4}
	want, err := codec.DecompressRegionFrom(context.Background(), h, payloadOf(blob, h), off, ext, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecompressRegionFrom(context.Background(), h, payloadOf(blob, h), off, ext, nil,
		func(ci int, decode func() ([]float64, error)) ([]float64, error) {
			t.Errorf("source called for chunk %d of a constant stream", ci)
			return decode()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Data, want.Data) {
		t.Fatalf("constant region %v, want %v", got.Data, want.Data)
	}
}

// An error from the source fails the decode with that error.
func TestDecompressRegionFromSlabSourceError(t *testing.T) {
	blob := regionStreams(t)["sz"]
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("slab source failed")
	_, err = codec.DecompressRegionFrom(context.Background(), h, payloadOf(blob, h), []int{0, 0, 0}, h.Dims, nil,
		func(ci int, decode func() ([]float64, error)) ([]float64, error) {
			if ci == 1 {
				return nil, boom
			}
			return decode()
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
}

// Misses decode in parallel: under GOMAXPROCS 2, two uncached chunks are
// inside their miss callbacks (which read the payload) at the same time.
func TestDecompressRegionFromSlabSourceParallelMisses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	blob := regionStreams(t)["sz"]
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int32
	both := make(chan struct{})
	payload := func(ci int) ([]byte, error) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			return nil, errors.New("no second miss callback ran concurrently within 10s")
		}
		return codec.ChunkPayload(blob, h, ci)
	}
	if _, err := codec.DecompressRegionFrom(context.Background(), h, payload, []int{0, 0, 0}, h.Dims, codec.NewScratch(), newSlabMap().source); err != nil {
		t.Fatal(err)
	}
}
