package fixedpsnr_test

// This file is a whole-file example: registering a third-party codec
// through the public fixedpsnr/codec extension point. The "store" codec
// below is deliberately trivial — it stores every value losslessly — but
// it is a complete pipeline: it registers in init(), compresses and
// decompresses one chunk at a time inside the shared stream container,
// and from then on fixedpsnr.Decompress, Decoder sessions, archives, and
// the fpsz CLI can all read its streams. An Encoder selects it by
// registry name with WithCodecName.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fixedpsnr"
	"fixedpsnr/codec"
)

// storeID is the stream codec byte the example pipeline claims. Pick any
// value no registered codec uses; Register panics at init time on
// collisions, so a clash cannot ship silently.
const storeID codec.ID = 200

// storeCodec is a lossless "compressor": each chunk's payload is its
// values as raw little-endian float64s.
type storeCodec struct{}

func (storeCodec) Name() string      { return "store" }
func (storeCodec) IDs() []codec.ID   { return []codec.ID{storeID} }
func (storeCodec) MeasuresMSE() bool { return false }

func (storeCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec codec.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, codec.ChunkStats{}, err
	}
	out := make([]byte, 0, 8*len(data))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	st := codec.ChunkStats{MSE: 0} // lossless
	st.Min, st.Max = slices.Min(data), slices.Max(data)
	return out, st, nil
}

// DecompressChunk checks the payload before reading it: the bytes come
// from the stream, and a header can declare any chunk length.
func (storeCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("store: chunk %d payload is %d bytes, want %d", ci, len(payload), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

func init() { codec.Register(storeCodec{}) }

// Example_customCodec compresses with the registered third-party codec
// and decompresses through the ordinary registry-routed path.
func Example_customCodec() {
	f := fixedpsnr.NewField("raw", fixedpsnr.Float64, 16, 16)
	for i := range f.Data {
		f.Data[i] = math.Sqrt(float64(i))
	}

	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModeAbs),
		fixedpsnr.WithErrorBound(1e-6), // resolved by plan; ignored by "store"
		fixedpsnr.WithCodecName("store"),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	stream, _, err := enc.Encode(context.Background(), f)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// No special decode path: the header's codec byte routes to the
	// registered pipeline.
	g, info, err := fixedpsnr.Decompress(stream)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	exact := true
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			exact = false
		}
	}
	fmt.Printf("codec byte: %d\n", info.Codec)
	fmt.Printf("lossless round-trip: %v\n", exact)
	// Output:
	// codec byte: 200
	// lossless round-trip: true
}
