package fixedpsnr_test

import (
	"context"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
)

// relabelID is the stream ID of relabelCodec.
const relabelID codec.ID = 201

// relabelCodec is the sz pipeline registered under its own name and
// stream ID — to the chunked container, a third-party ChunkCodec.
type relabelCodec struct{ codec.ChunkCodec }

func (relabelCodec) Name() string    { return "relabel-sz" }
func (relabelCodec) IDs() []codec.ID { return []codec.ID{relabelID} }

// DecompressChunk decodes a relabelled chunk as the sz chunk it is.
func (r relabelCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	lorenzo := *h
	lorenzo.Codec = codec.IDLorenzo
	return r.ChunkCodec.DecompressChunk(payload, &lorenzo, ci, dst, sc)
}

func init() {
	sz, _ := codec.ByName("sz")
	codec.Register(relabelCodec{sz.(codec.ChunkCodec)})
}

// TestEncodeFromCustomChunkCodec streams a field through a ChunkCodec
// that is not a built-in pipeline: the container stamps the codec's
// first stream ID, and the stream decodes through the registry to the
// same bits as the sz stream it relabels.
func TestEncodeFromCustomChunkCodec(t *testing.T) {
	f := fixtureField("custom", fixedpsnr.Float32, 64, 64, 16)
	encode := func(name string) []byte {
		t.Helper()
		enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(fixedpsnr.Options{
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 70, Codec: name,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		}))
		if err != nil {
			t.Fatal(err)
		}
		blob, _, err := enc.EncodeFrom(context.Background(), fixedpsnr.NewFieldReader(f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return blob
	}
	custom, ref := encode("relabel-sz"), encode("sz")
	h, err := fixedpsnr.Inspect(custom)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != relabelID || len(h.Chunks) != 4 {
		t.Fatalf("stream codec %v with %d chunks, want %v with 4", h.Codec, len(h.Chunks), relabelID)
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
