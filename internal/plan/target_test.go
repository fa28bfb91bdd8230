package plan

import (
	"math"
	"testing"

	"fixedpsnr/internal/codec"
)

func TestBuildTargetDispatch(t *testing.T) {
	mseCodec := &flatCodec{} // MeasuresMSE() == true
	sizeOnly := &sizeCodec{} // MeasuresMSE() == false
	cases := []struct {
		name string
		req  Request
		c    codec.Codec
		vr   float64
		want bool
	}{
		{"uncalibrated psnr", Request{Mode: ModePSNR, TargetPSNR: 60}, mseCodec, 1, false},
		{"calibrated psnr", Request{Mode: ModePSNR, TargetPSNR: 60, Calibrated: true}, mseCodec, 1, true},
		{"calibrated psnr, no MSE", Request{Mode: ModePSNR, TargetPSNR: 60, Calibrated: true}, sizeOnly, 1, false},
		{"calibrated psnr, constant field", Request{Mode: ModePSNR, TargetPSNR: 60, Calibrated: true}, mseCodec, 0, false},
		{"ratio", Request{Mode: ModeRatio, TargetRatio: 16}, sizeOnly, 1, true},
		{"ratio on MSE codec", Request{Mode: ModeRatio, TargetRatio: 16}, mseCodec, 1, true},
		{"ratio, constant field", Request{Mode: ModeRatio, TargetRatio: 16}, sizeOnly, 0, false},
		{"abs", Request{Mode: ModeAbs, ErrorBound: 1e-3}, mseCodec, 1, false},
		{"rel", Request{Mode: ModeRel, RelBound: 1e-3}, mseCodec, 1, false},
		{"pwrel", Request{Mode: ModePWRel, PWRelBound: 1e-3}, mseCodec, 1, false},
	}
	for _, c := range cases {
		got := c.req.BuildTarget(c.c, c.vr)
		if (got != nil) != c.want {
			t.Errorf("%s: BuildTarget = %v, want target=%v", c.name, got, c.want)
		}
	}
}

func TestTargetDefaultsAndTuning(t *testing.T) {
	p := NewPSNRTarget(60, 1, Tuning{}).(*psnrTarget)
	if p.tolDB != DefaultToleranceDB || p.maxPasses != DefaultMaxPasses {
		t.Fatalf("psnr defaults: tol=%g passes=%d", p.tolDB, p.maxPasses)
	}
	p = NewPSNRTarget(60, 1, Tuning{ToleranceDB: 2, MaxPasses: 10}).(*psnrTarget)
	if p.tolDB != 2 || p.MaxPasses() != 10 {
		t.Fatalf("psnr tuning not honored: tol=%g passes=%d", p.tolDB, p.MaxPasses())
	}
	r := NewRatioTarget(16, 0, Tuning{}).(*ratioTarget)
	if r.tol != DefaultRatioTolerance || r.maxPasses != DefaultRatioMaxPasses || r.bpp != 64 {
		t.Fatalf("ratio defaults: tol=%g passes=%d bpp=%g", r.tol, r.maxPasses, r.bpp)
	}
	r = NewRatioTarget(16, 32, Tuning{RatioTolerance: 0.2, MaxPasses: 2}).(*ratioTarget)
	if r.tol != 0.2 || r.MaxPasses() != 2 || r.bpp != 32 {
		t.Fatalf("ratio tuning not honored: tol=%g passes=%d bpp=%g", r.tol, r.MaxPasses(), r.bpp)
	}
	if NewPSNRTarget(60, 1, Tuning{}).ReadsBytes() {
		t.Fatal("fixed-PSNR steering must read no bytes (and so pin exact chunks)")
	}
	if !NewRatioTarget(16, 32, Tuning{}).ReadsBytes() {
		t.Fatal("fixed-ratio steering must read bytes (and so recompress exact chunks)")
	}
}

// FuzzRatioTargetSolve: whatever history the loop hands it, the ratio
// solver must terminate and never propose a NaN, infinite, or
// non-positive bound — it either accepts, errors, or steps to a usable
// bound, and a simulated loop over a synthetic rate curve always halts
// within the pass budget.
func FuzzRatioTargetSolve(f *testing.F) {
	f.Add(16.0, 32.0, 1e-4, 4.0, 2e-4, 6.0)
	f.Add(100.0, 64.0, 1e-9, 1.0001, 0.0, 0.0)
	f.Add(2.0, 32.0, 1e300, 1e300, 1e-300, 1e-300)
	f.Fuzz(func(t *testing.T, target, bpp, b0, m0, b1, m1 float64) {
		if !(target > 1) || math.IsInf(target, 0) {
			target = 16
		}
		tgt := NewRatioTarget(target, bpp, Tuning{})

		// Arbitrary (even nonsensical) history entries must not crash the
		// solver or make it emit an unusable bound.
		hist := []Pass{{Bound: b0, Measured: m0}}
		if b1 != 0 || m1 != 0 {
			hist = append(hist, Pass{Bound: b1, Measured: m1})
		}
		next, done, err := tgt.Solve(hist)
		if err == nil && !done {
			if !(next > 0) || math.IsInf(next, 0) || math.IsNaN(next) {
				t.Fatalf("Solve(%v) proposed unusable bound %g", hist, next)
			}
		}

		// Simulated steering over a monotone synthetic rate curve:
		// ratio(b) = r0·(b/bref)^a with the fuzzed inputs shaping r0 and
		// a. The loop must halt within the pass budget with every
		// intermediate bound usable.
		a := 0.3 + math.Mod(math.Abs(m0), 1.5)
		r0 := 1 + math.Mod(math.Abs(m1), 64)
		bref := 1e-4
		curve := func(b float64) float64 { return r0 * math.Pow(b/bref, a) }
		bound := bref
		history := []Pass{{Bound: bound, Measured: curve(bound)}}
		for pass := 0; pass < tgt.MaxPasses(); pass++ {
			next, done, err := tgt.Solve(history)
			if err != nil || done {
				break
			}
			if !(next > 0) || math.IsInf(next, 0) || math.IsNaN(next) {
				t.Fatalf("loop pass %d proposed unusable bound %g", pass, next)
			}
			bound = next
			history = append(history, Pass{Bound: bound, Measured: curve(bound)})
		}
		if len(history) > 1+tgt.MaxPasses() {
			t.Fatalf("loop took %d passes, budget %d", len(history), 1+tgt.MaxPasses())
		}
	})
}

// FuzzPSNRTargetSolve: same safety net for the calibrated fixed-PSNR
// solver — arbitrary histories must produce an accept, an explicit
// error, or a positive finite bound.
func FuzzPSNRTargetSolve(f *testing.F) {
	f.Add(40.0, 1.0, 1e-3, 1e-4, 2e-3, 1e-5)
	f.Add(20.0, 1e6, 1.0, 1e-2, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, target, vr, b0, m0, b1, m1 float64) {
		if !(target > 0) || math.IsInf(target, 0) {
			target = 40
		}
		if !(vr > 0) || math.IsInf(vr, 0) {
			vr = 1
		}
		tgt := NewPSNRTarget(target, vr, Tuning{})
		hist := []Pass{{Bound: b0, Measured: m0}}
		if b1 != 0 || m1 != 0 {
			hist = append(hist, Pass{Bound: b1, Measured: m1})
		}
		next, done, err := tgt.Solve(hist)
		if err == nil && !done {
			if !(next > 0) || math.IsInf(next, 0) || math.IsNaN(next) {
				t.Fatalf("Solve(%v) proposed unusable bound %g", hist, next)
			}
		}
	})
}
