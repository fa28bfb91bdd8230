package sz

import (
	"context"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// szCodec publishes this pipeline in the codec registry: it owns the
// Lorenzo, constant, and log-Lorenzo stream IDs and measures its exact
// MSE during compression (Theorem 1).
type szCodec struct{}

func (szCodec) Name() string { return "sz" }

func (szCodec) IDs() []codec.ID {
	return []codec.ID{codec.IDLorenzo, codec.IDConstant, codec.IDLogLorenzo}
}

func (szCodec) MeasuresMSE() bool { return true }

// CompressPWRel implements codec.PWRelCodec: pointwise-relative
// compression in the log domain (see pwrel.go). The public API routes
// ModePWRel to any registered codec with this capability.
func (szCodec) CompressPWRel(ctx context.Context, f *field.Field, pwRel float64, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	return CompressPWRelCtx(ctx, f, pwRel, opt, sc)
}

func init() { codec.Register(szCodec{}) }
