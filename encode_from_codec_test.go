package fixedpsnr_test

import (
	"bytes"
	"context"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
)

// relabelID is the stream ID of relabelCodec.
const relabelID codec.ID = 201

// relabelCodec is the sz pipeline registered under its own name and
// stream ID — to the chunked container, a third-party codec.
type relabelCodec struct{ codec.Codec }

func (relabelCodec) Name() string    { return "relabel-sz" }
func (relabelCodec) IDs() []codec.ID { return []codec.ID{relabelID} }

// DecompressChunk decodes a relabelled chunk as the sz chunk it is.
func (r relabelCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	lorenzo := *h
	lorenzo.Codec = codec.IDLorenzo
	return r.Codec.DecompressChunk(payload, &lorenzo, ci, dst, sc)
}

func init() {
	sz, _ := codec.ByName("sz")
	codec.Register(relabelCodec{sz})
}

// TestEncodeFromCustomChunkCodec streams a field through a codec that
// is not a built-in pipeline: the container stamps the codec's first
// stream ID, and the stream decodes through the registry to the same
// bits as the sz stream it relabels. The in-memory Encode of the same
// field under the same options takes the same container path, so it
// carries the same ID and equals the streamed bytes.
func TestEncodeFromCustomChunkCodec(t *testing.T) {
	f := fixtureField("custom", fixedpsnr.Float32, 64, 64, 16)
	encoder := func(name string) *fixedpsnr.Encoder {
		t.Helper()
		enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(fixedpsnr.Options{
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 70, Codec: name,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	encodeFrom := func(name string) []byte {
		t.Helper()
		blob, _, err := encoder(name).EncodeFrom(context.Background(), fixedpsnr.NewFieldReader(f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return blob
	}
	custom, ref := encodeFrom("relabel-sz"), encodeFrom("sz")
	h, err := fixedpsnr.Inspect(custom)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != relabelID || len(h.Chunks) != 4 {
		t.Fatalf("stream codec %v with %d chunks, want %v with 4", h.Codec, len(h.Chunks), relabelID)
	}
	inMemory, _, err := encoder("relabel-sz").Encode(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := fixedpsnr.Inspect(inMemory)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Codec != relabelID {
		t.Fatalf("Encode labelled the stream %v, want %v", mh.Codec, relabelID)
	}
	if !bytes.Equal(inMemory, custom) {
		t.Fatalf("Encode wrote %d bytes that differ from EncodeFrom's %d", len(inMemory), len(custom))
	}
	got, _, err := fixedpsnr.Decompress(custom)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fixedpsnr.Decompress(ref)
	if err != nil {
		t.Fatal(err)
	}
	if decodeDigest(got) != decodeDigest(want) {
		t.Fatal("relabelled stream decodes differently from the sz stream")
	}
}

// TestSteerCustomChunkCodec steers a field through a ChunkCodec that is
// not a ChunkQuantizer: every pass, the first included, runs the codec's
// CompressChunk on the container tiling, so the stream carries the
// codec's own ID and takes the passes and decodes to the bits of the
// same encode through sz.
func TestSteerCustomChunkCodec(t *testing.T) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 0)()
	for _, opt := range []fixedpsnr.Options{
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: 30, Calibrated: true, Workers: 2},
		{Mode: fixedpsnr.ModeRatio, TargetRatio: 16, Workers: 2},
	} {
		opt.Codec = "sz"
		ref, want, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Codec = "relabel-sz"
		blob, got, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Mode, err)
		}
		if want.Passes < 2 || got.Passes != want.Passes {
			t.Fatalf("%v: %d passes, want sz's %d (at least 2)", opt.Mode, got.Passes, want.Passes)
		}
		h, err := fixedpsnr.Inspect(blob)
		if err != nil {
			t.Fatal(err)
		}
		if h.Codec != relabelID {
			t.Fatalf("%v: steered stream labelled %v, want %v", opt.Mode, h.Codec, relabelID)
		}
		dec, _, err := fixedpsnr.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		refDec, _, err := fixedpsnr.Decompress(ref)
		if err != nil {
			t.Fatal(err)
		}
		if decodeDigest(dec) != decodeDigest(refDec) {
			t.Fatalf("%v: relabelled stream decodes differently from the sz stream", opt.Mode)
		}
	}
}
