package plan

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	_ "fixedpsnr/internal/otc" // registers the transform pipeline
)

// fullPasses is a codec with its quantizer interfaces hidden: every
// steering pass runs its CompressChunk in full. It keeps the codec's
// chunk planner, so it tiles as the codec does.
type fullPasses struct {
	codec.Codec
	codec.ChunkPlanner
}

// countStages is a codec.StagedQuantizer that counts the stage runs a
// Draft asks of it.
type countStages struct {
	codec.StagedQuantizer
	codec.ChunkPlanner
	stages atomic.Int64
}

func (c *countStages) StageChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) (codec.Staged, error) {
	c.stages.Add(1)
	return c.StagedQuantizer.StageChunk(ctx, data, dims, prec, opt, sc)
}

// stageField is a float32 field of the given dims: two waves along the
// flattened index plus a little deterministic noise.
func stageField(dims ...int) *field.Field {
	f := field.New("stage", field.Float32, dims...)
	seed := uint64(1)
	for i := range f.Data {
		seed = seed*6364136223846793005 + 1442695040888963407
		noise := float64(seed>>40)/(1<<24) - 0.5
		f.Data[i] = float64(float32(math.Sin(float64(i)/50) + 0.3*math.Cos(float64(i)/7) + 0.05*noise))
	}
	return f
}

// TestHeldStagesMatchFullPasses steers otc at a fixed ratio, field-wide
// through Drive and as the background of a 70 dB region through
// DriveGroups. Holding each chunk's coefficients across passes must give
// the stream that compressing every chunk in full on every pass gives,
// byte for byte, with the stage run once per chunk over at least two
// passes. The dims are not multiples of the block edge, so edge blocks
// are partial.
func TestHeldStagesMatchFullPasses(t *testing.T) {
	otc, ok := codec.ByName("otc")
	if !ok {
		t.Fatal("otc is not registered")
	}
	planner := otc.(codec.ChunkPlanner)
	ratio := Request{Mode: ModeRatio, TargetRatio: 8, BitsPerValue: 32}
	for _, shape := range []struct {
		dims      []int
		chunkRows int // explicit tiling; the default follows Workers
		roi       [2]int
	}{
		{dims: []int{3001}, chunkRows: 700, roi: [2]int{700, 900}},
		{dims: []int{61, 45}, chunkRows: 13, roi: [2]int{13, 20}},
		{dims: []int{21, 19, 13}, chunkRows: 5, roi: [2]int{5, 8}},
	} {
		for _, tr := range []codec.Transform{codec.TransformDCT, codec.TransformHaar} {
			for _, rows := range []int{0, shape.chunkRows} {
				name := fmt.Sprintf("rank%d_tr%d_rows%d", len(shape.dims), tr, rows)
				t.Run(name, func(t *testing.T) {
					f := stageField(shape.dims...)
					_, _, vr := f.ValueRange()
					res, err := ratio.Resolve(vr)
					if err != nil {
						t.Fatal(err)
					}
					opt := codec.Options{
						Mode: ModeRatio, ErrorBound: res.EbAbs, TargetPSNR: math.NaN(), ValueRange: vr,
						Transform: tr, Workers: 2, ChunkRows: rows,
					}
					ctx := context.Background()

					t.Run("Drive", func(t *testing.T) {
						want, _, wantBound, wantPasses, err := Drive(ctx, f, fullPasses{otc, planner}, opt, ratio.BuildTarget(otc, vr), nil)
						if err != nil {
							t.Fatal(err)
						}
						held := &countStages{StagedQuantizer: otc.(codec.StagedQuantizer), ChunkPlanner: planner}
						got, st, bound, passes, err := Drive(ctx, f, held, opt, ratio.BuildTarget(otc, vr), codec.NewScratch())
						if err != nil {
							t.Fatal(err)
						}
						checkHeld(t, got, want, held, st.Chunks, passes)
						if bound != wantBound || passes != wantPasses {
							t.Fatalf("settled on %g after %d passes, full passes on %g after %d", bound, passes, wantBound, wantPasses)
						}
					})

					t.Run("DriveGroups", func(t *testing.T) {
						specs := []GroupSpec{
							{Name: "roi", RowLo: shape.roi[0], RowHi: shape.roi[1], Request: Request{Mode: ModePSNR, TargetPSNR: 70, BitsPerValue: 32, Calibrated: true}},
							{Name: "background", Request: ratio, Default: true},
						}
						want, _, wantOut, err := DriveGroups(ctx, f, fullPasses{otc, planner}, opt, specs, vr, nil)
						if err != nil {
							t.Fatal(err)
						}
						held := &countStages{StagedQuantizer: otc.(codec.StagedQuantizer), ChunkPlanner: planner}
						got, st, out, err := DriveGroups(ctx, f, held, opt, specs, vr, codec.NewScratch())
						if err != nil {
							t.Fatal(err)
						}
						passes := 0
						for gi, o := range out {
							passes = max(passes, o.Passes)
							if o.Passes != wantOut[gi].Passes || o.EbAbs != wantOut[gi].EbAbs {
								t.Fatalf("group %q: %d passes at %g, full passes %d at %g", o.Name, o.Passes, o.EbAbs, wantOut[gi].Passes, wantOut[gi].EbAbs)
							}
						}
						checkHeld(t, got, want, held, st.Chunks, passes)
					})
				})
			}
		}
	}
}

// checkHeld compares a held-stage stream with its full-pass reference
// and checks that the stage ran once per chunk over at least 2 passes.
func checkHeld(t *testing.T, got, want []byte, held *countStages, chunks, passes int) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("held-stage stream (%d bytes) differs from the full-pass stream (%d bytes)", len(got), len(want))
	}
	if passes < 2 {
		t.Fatalf("%d passes; the test needs at least 2", passes)
	}
	if n := held.stages.Load(); n != int64(chunks) {
		t.Fatalf("%d stage runs over %d passes of %d chunks, want one per chunk", n, passes, chunks)
	}
}
