package plan

import (
	"context"
	"math"
	"strings"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// flatCodec measures an MSE that never responds to the bound — the
// degenerate case where two refinement passes measure the same (δ, MSE)
// point and the secant step repeats itself (d1 == d0).
type flatCodec struct {
	mse          float64
	compressions int
}

func (c *flatCodec) Name() string      { return "flat" }
func (c *flatCodec) IDs() []codec.ID   { return []codec.ID{250} }
func (c *flatCodec) MeasuresMSE() bool { return true }

func (c *flatCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	c.compressions++
	return []byte{0xFA}, codec.ChunkStats{MSE: c.mse}, nil
}

func (c *flatCodec) DecompressChunk([]byte, *codec.Header, int, []float64, *codec.Scratch) error {
	return nil
}

// rampField is a field of the given dims whose values rise evenly from
// 0 to 1 (value range 1). Under Workers 1 it tiles into one chunk, so a
// fake codec is called once per pass.
func rampField(prec field.Precision, dims ...int) *field.Field {
	f := field.New("f", prec, dims...)
	for i := range f.Data {
		f.Data[i] = float64(i) / float64(len(f.Data)-1)
	}
	return f
}

// psnrDrive runs the calibrated fixed-PSNR target through the generic
// loop — the shape every caller uses.
func psnrDrive(t *testing.T, c codec.Codec, opt codec.Options, target, vr float64) ([]byte, *codec.Stats, float64, int, error) {
	t.Helper()
	tgt := NewPSNRTarget(target, vr, Tuning{})
	return Drive(context.Background(), rampField(field.Float64, 4, 4), c, opt, tgt, nil)
}

// TestDriveStallIsAnError: when two equal passes make the secant step
// propose the bin width it just measured, the fixed-PSNR target must fail
// loudly rather than silently accept an off-target stream.
func TestDriveStallIsAnError(t *testing.T) {
	c := &flatCodec{mse: 1e-2} // 20 dB at vr=1, far from the 40 dB target
	opt := codec.Options{ErrorBound: 0.01, Workers: 1}
	_, _, _, _, err := psnrDrive(t, c, opt, 40, 1)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want refinement-stalled error", err)
	}
	// The first extra pass moves the bound and measures the same MSE;
	// the next secant step then repeats δ and the stall is detected
	// before any further compression (1 initial + 1 extra).
	if c.compressions != 2 {
		t.Fatalf("compressions = %d, want 2 (initial + one extra pass, then stall)", c.compressions)
	}
}

// TestDriveWithinToleranceExitsClean: a first pass already inside the
// band never recompresses and never errors.
func TestDriveWithinToleranceExitsClean(t *testing.T) {
	target := 40.0
	mse := math.Pow(10, -target/10) // exactly on target at vr=1
	c := &flatCodec{mse: mse}
	opt := codec.Options{ErrorBound: 0.01, Workers: 1}
	nb, nst, eb, passes, err := psnrDrive(t, c, opt, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.compressions != 1 || eb != opt.ErrorBound || nb[len(nb)-1] != 0xFA || nst.MSE != mse || passes != 1 {
		t.Fatalf("within-tolerance pass must be a no-op (compressions=%d passes=%d)", c.compressions, passes)
	}
}

// TestDriveNilTargetPassesThrough: single-pass modes hand Drive a nil
// target and must get the codec's one pass back untouched.
func TestDriveNilTargetPassesThrough(t *testing.T) {
	c := &flatCodec{mse: 1}
	opt := codec.Options{ErrorBound: 0.25, Workers: 1}
	nb, nst, eb, passes, err := Drive(context.Background(), rampField(field.Float64, 4, 4), c, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.compressions != 1 || nb[len(nb)-1] != 0xFA || nst.MSE != 1 || eb != opt.ErrorBound || passes != 1 {
		t.Fatal("nil target must pass the one pass through unchanged")
	}
}

// sizeCodec writes a payload whose size follows an exact power law of
// the bound, size = base / bound^a, so the fixed-ratio secant should
// converge in a handful of passes.
type sizeCodec struct {
	base         float64
	a            float64
	compressions int
}

func (c *sizeCodec) Name() string      { return "size" }
func (c *sizeCodec) IDs() []codec.ID   { return []codec.ID{251} }
func (c *sizeCodec) MeasuresMSE() bool { return false }

func (c *sizeCodec) compressedBytes(bound float64) int {
	n := int(c.base / math.Pow(bound, c.a))
	if n < 1 {
		n = 1
	}
	return n
}

func (c *sizeCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	c.compressions++
	return make([]byte, c.compressedBytes(opt.ErrorBound)), codec.ChunkStats{MSE: math.NaN()}, nil
}

func (c *sizeCodec) DecompressChunk([]byte, *codec.Header, int, []float64, *codec.Scratch) error {
	return nil
}

// sizeField is the 1 MiB float32 field the ratio tests steer.
func sizeField() *field.Field { return rampField(field.Float32, 512, 512) }

// TestDriveRatioConvergesOnPowerLawCodec: the fixed-ratio target steers a
// synthetic power-law rate curve into the acceptance band.
func TestDriveRatioConvergesOnPowerLawCodec(t *testing.T) {
	for _, target := range []float64{5, 20, 80} {
		c := &sizeCodec{base: 100, a: 0.7}
		opt := codec.Options{ErrorBound: 1e-4, Workers: 1}
		tgt := NewRatioTarget(target, 32, Tuning{})
		_, nst, eb, passes, err := Drive(context.Background(), sizeField(), c, opt, tgt, nil)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		achieved := float64(nst.OriginalBytes) / float64(nst.CompressedBytes)
		if !(math.Abs(achieved-target) <= DefaultRatioTolerance*target) {
			t.Fatalf("target %g: achieved %.3g after %d passes (eb=%g)", target, achieved, passes, eb)
		}
		if passes > 1+DefaultRatioMaxPasses {
			t.Fatalf("target %g: %d passes exceeds budget", target, passes)
		}
	}
}

// TestDriveRespectsMaxPasses: a tight pass budget stops the loop and
// returns the closest stream without error.
func TestDriveRespectsMaxPasses(t *testing.T) {
	c := &sizeCodec{base: 100, a: 0.7}
	opt := codec.Options{ErrorBound: 1e-4, Workers: 1}
	tgt := NewRatioTarget(80, 32, Tuning{MaxPasses: 1})
	_, _, _, passes, err := Drive(context.Background(), sizeField(), c, opt, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 2 || c.compressions != 2 {
		t.Fatalf("passes = %d, compressions = %d, want 2 each (first pass + one refinement)", passes, c.compressions)
	}
}
