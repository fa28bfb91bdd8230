package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Eq. 7 and Eq. 8 must be exact inverses.
func TestEq7Eq8Inverse(t *testing.T) {
	if err := quick.Check(func(raw float64) bool {
		psnr := math.Mod(math.Abs(raw), 200)
		if psnr == 0 {
			return true
		}
		ebRel := RelBoundForPSNR(psnr)
		back := EstimatePSNRFromAbsBound(1, ebRel)
		return almostEqual(back, psnr, 1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEq8KnownValue(t *testing.T) {
	// PSNR = 60 dB → ebrel = √3·10⁻³.
	got := RelBoundForPSNR(60)
	want := math.Sqrt(3) * 1e-3
	if !almostEqual(got, want, 1e-15) {
		t.Fatalf("RelBoundForPSNR(60) = %g, want %g", got, want)
	}
}

func TestEq7MatchesEq6WithSZDelta(t *testing.T) {
	// SZ sets δ = 2·ebabs; Eq. 7 must equal Eq. 6,
	// 20·log10(vr/δ) + 10·log10 12, at that δ.
	vr, eb := 12.5, 3e-4
	eq6 := 20*math.Log10(vr/(2*eb)) + 10*math.Log10(12)
	if got := EstimatePSNRFromAbsBound(vr, eb); !almostEqual(got, eq6, 1e-9) {
		t.Fatalf("Eq.7 %g != Eq.6 %g", got, eq6)
	}
}

func TestEstimatorEdgeCases(t *testing.T) {
	if !math.IsInf(EstimatePSNRFromAbsBound(0, 1), 1) {
		t.Fatal("zero range should be +Inf")
	}
	if !math.IsInf(EstimatePSNRFromAbsBound(1, 0), 1) {
		t.Fatal("zero bound should be +Inf")
	}
}

func TestQuantizationMSEUniformErrors(t *testing.T) {
	// Errors uniform in [−δ/2, δ/2) land in the center bin; their exact
	// quantization MSE approaches δ²/12.
	rng := rand.New(rand.NewSource(5))
	delta := 0.02
	errs := make([]float64, 200000)
	for i := range errs {
		errs[i] = (rng.Float64() - 0.5) * delta
	}
	mse, inRange := QuantizationMSE(errs, delta, 100)
	want := delta * delta / 12
	if !almostEqual(mse, want, 0.02*want) {
		t.Fatalf("uniform-error MSE = %g, want ≈ %g", mse, want)
	}
	if inRange != 1 {
		t.Fatalf("inRange = %g, want 1", inRange)
	}
}

func TestQuantizationMSEPeakedErrorsBeatAssumption(t *testing.T) {
	// Sharply peaked errors (tiny compared to δ) have much lower true
	// quantization MSE than δ²/12 — the paper's explanation for the
	// overshoot at low PSNR targets.
	rng := rand.New(rand.NewSource(6))
	delta := 1.0
	errs := make([]float64, 50000)
	for i := range errs {
		errs[i] = rng.NormFloat64() * 0.01
	}
	mse, _ := QuantizationMSE(errs, delta, 100)
	if uniform := delta * delta / 12; mse >= uniform/100 {
		t.Fatalf("peaked-error MSE %g not ≪ uniform assumption %g", mse, uniform)
	}
}

func TestQuantizationMSEOutOfRange(t *testing.T) {
	// Errors beyond the radius are literals: zero contribution.
	errs := []float64{1000, -1000}
	mse, inRange := QuantizationMSE(errs, 1, 4)
	if mse != 0 || inRange != 0 {
		t.Fatalf("out-of-range: mse=%g inRange=%g", mse, inRange)
	}
	if m, r := QuantizationMSE(nil, 1, 4); m != 0 || r != 0 {
		t.Fatal("empty input should be zeros")
	}
	if m, r := QuantizationMSE([]float64{1}, 0, 4); m != 0 || r != 0 {
		t.Fatal("zero delta should be zeros")
	}
}

func TestPlanFixedPSNR(t *testing.T) {
	p, err := PlanFixedPSNR(80, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p.EbRel, math.Sqrt(3)*1e-4, 1e-18) {
		t.Fatalf("EbRel = %g", p.EbRel)
	}
	if !almostEqual(p.EbAbs, p.EbRel*100, 1e-15) {
		t.Fatalf("EbAbs = %g", p.EbAbs)
	}
	if p.Constant {
		t.Fatal("non-constant plan flagged constant")
	}
}

func TestPlanFixedPSNRConstantField(t *testing.T) {
	p, err := PlanFixedPSNR(80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Constant {
		t.Fatal("zero-range plan should be constant")
	}
}

func TestPlanFixedPSNRValidates(t *testing.T) {
	for _, psnr := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := PlanFixedPSNR(psnr, 1); err == nil {
			t.Fatalf("expected error for target %g", psnr)
		}
	}
	for _, vr := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := PlanFixedPSNR(60, vr); err == nil {
			t.Fatalf("expected error for range %g", vr)
		}
	}
}

// The planned bound, pushed back through the estimator, reproduces the
// target exactly for any positive range.
func TestPlanRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(rawPSNR, rawVR float64) bool {
		psnr := 1 + math.Mod(math.Abs(rawPSNR), 180)
		vr := math.Abs(rawVR)
		if vr == 0 || math.IsInf(vr, 0) || math.IsNaN(vr) || vr > 1e30 {
			return true
		}
		p, err := PlanFixedPSNR(psnr, vr)
		if err != nil {
			return false
		}
		back := EstimatePSNRFromAbsBound(vr, p.EbAbs)
		return almostEqual(back, psnr, 1e-6)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
