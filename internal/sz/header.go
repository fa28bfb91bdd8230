package sz

import (
	"context"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// The stream container (header layout, codec identifiers, parsing) lives
// in internal/codec so every registered pipeline shares it; this file
// keeps the historical sz names as aliases for the shared types.

// Magic identifies a fixed-PSNR compressed stream.
var Magic = codec.Magic

// Version is the current stream format version.
const Version = codec.Version

// Codec identifies the compression pipeline used for the payload.
type Codec = codec.ID

// Codec values.
const (
	// CodecLorenzo is the SZ pipeline: Lorenzo prediction +
	// error-controlled uniform quantization + Huffman + DEFLATE.
	CodecLorenzo = codec.IDLorenzo
	// CodecConstant stores a constant field as a single value.
	CodecConstant = codec.IDConstant
	// CodecLogLorenzo is the pointwise-relative pipeline: CodecLorenzo
	// applied in the log domain with a sign/zero side channel.
	CodecLogLorenzo = codec.IDLogLorenzo
	// CodecOTC is the orthogonal-transform pipeline implemented by
	// internal/otc. It shares this container format.
	CodecOTC = codec.IDOTC
)

// Mode records how the error bound embedded in the stream was derived.
type Mode = codec.Mode

// Mode values.
const (
	ModeAbs   = codec.ModeAbs
	ModeRel   = codec.ModeRel
	ModePSNR  = codec.ModePSNR
	ModePWRel = codec.ModePWRel
)

// Header describes a compressed stream.
type Header = codec.Header

// ParseHeader decodes the header of a compressed stream without touching
// the chunk payloads.
func ParseHeader(data []byte) (*Header, error) { return codec.ParseHeader(data) }

func appendFloat64(b []byte, v float64) []byte { return codec.AppendFloat64(b, v) }

func readFloat64(b []byte) (float64, []byte, error) { return codec.ReadFloat64(b) }

func readUvarint(b []byte) (uint64, []byte, error) { return codec.ReadUvarint(b) }

// szCodec publishes this pipeline in the codec registry: it owns the
// Lorenzo, constant, and log-Lorenzo stream IDs and measures its exact
// MSE during compression (Theorem 1).
type szCodec struct{}

func (szCodec) Name() string { return "sz" }

func (szCodec) IDs() []codec.ID {
	return []codec.ID{codec.IDLorenzo, codec.IDConstant, codec.IDLogLorenzo}
}

func (szCodec) MeasuresMSE() bool { return true }

// Compress encodes f through the chunked container (codec.Encode): it
// tiles the field into independent row-slab chunks, each restarting the
// predictor, and compresses them in parallel through CompressChunk, each
// worker drawing its transients from its own shard of sc. A cancelled
// context aborts within one chunk of work per worker and surfaces
// ctx.Err().
func (szCodec) Compress(ctx context.Context, f *field.Field, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	return codec.Encode(ctx, f, szCodec{}, opt, sc)
}

func (szCodec) Decompress(data []byte) (*field.Field, *codec.Header, error) {
	return Decompress(data)
}

// DecompressScratch implements codec.ScratchDecompressor: log-domain
// pointwise-relative streams decode here, drawing the mask inflate
// reader and the inner stream's decode buffers from sc (nil allocates
// fresh); every other stream goes to the chunk decoder.
func (szCodec) DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *codec.Header, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec == CodecLogLorenzo {
		return DecompressPWRelScratch(data, sc)
	}
	return codec.DecompressScratch(data, sc)
}

// CompressPWRel implements codec.PWRelCodec: pointwise-relative
// compression in the log domain (see pwrel.go). The public API routes
// ModePWRel to any registered codec with this capability.
func (szCodec) CompressPWRel(ctx context.Context, f *field.Field, pwRel float64, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	return CompressPWRelCtx(ctx, f, pwRel, opt, sc)
}

func init() { codec.Register(szCodec{}) }
