package sz

import "fixedpsnr/internal/codec"

// szCodec publishes this pipeline in the codec registry: it owns the
// Lorenzo, constant, and log-Lorenzo stream IDs and measures its exact
// MSE during compression (Theorem 1).
type szCodec struct{}

func (szCodec) Name() string { return "sz" }

func (szCodec) IDs() []codec.ID {
	return []codec.ID{codec.IDLorenzo, codec.IDConstant, codec.IDLogLorenzo}
}

func (szCodec) MeasuresMSE() bool { return true }

func init() { codec.Register(szCodec{}) }
