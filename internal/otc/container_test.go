package otc

import (
	"context"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// compress encodes f with this pipeline through the chunked container,
// the entry every unsteered encode takes.
func compress(f *field.Field, opt Options) ([]byte, *codec.Stats, error) {
	return codec.Encode(context.Background(), f, otcCodec{}, opt, nil)
}
