package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

func TestCompareLossless(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	d := Compare(x, x)
	if d.MSE != 0 || d.MaxErr != 0 {
		t.Fatalf("lossless comparison has nonzero error: %+v", d)
	}
	if !math.IsInf(d.PSNR, 1) {
		t.Fatalf("lossless PSNR = %g, want +Inf", d.PSNR)
	}
}

func TestCompareKnownValues(t *testing.T) {
	orig := []float64{0, 10}  // vr = 10
	recon := []float64{1, 10} // errors: 1, 0
	d := Compare(orig, recon)
	if !almostEqual(d.MSE, 0.5, 1e-12) {
		t.Fatalf("MSE = %g, want 0.5", d.MSE)
	}
	if !almostEqual(d.MaxErr, 1, 1e-12) {
		t.Fatalf("MaxErr = %g, want 1", d.MaxErr)
	}
	wantNRMSE := math.Sqrt(0.5) / 10
	if !almostEqual(d.NRMSE, wantNRMSE, 1e-12) {
		t.Fatalf("NRMSE = %g, want %g", d.NRMSE, wantNRMSE)
	}
	wantPSNR := -20 * math.Log10(wantNRMSE)
	if !almostEqual(d.PSNR, wantPSNR, 1e-9) {
		t.Fatalf("PSNR = %g, want %g", d.PSNR, wantPSNR)
	}
}

func TestComparePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Compare([]float64{1}, []float64{1, 2})
}

func TestCompareEmpty(t *testing.T) {
	d := Compare(nil, nil)
	if !math.IsInf(d.PSNR, 1) {
		t.Fatalf("empty comparison PSNR = %g, want +Inf", d.PSNR)
	}
}

func TestCompareConstantOriginal(t *testing.T) {
	orig := []float64{5, 5, 5}
	recon := []float64{5, 5, 6}
	d := Compare(orig, recon)
	if !math.IsInf(d.NRMSE, 1) {
		t.Fatalf("NRMSE = %g, want +Inf for constant original with loss", d.NRMSE)
	}
	if !math.IsInf(d.PSNR, -1) {
		t.Fatalf("PSNR = %g, want -Inf", d.PSNR)
	}
}

func TestPSNRNRMSERoundTrip(t *testing.T) {
	if err := quick.Check(func(raw float64) bool {
		nrmse := math.Abs(raw)
		if nrmse == 0 || math.IsInf(nrmse, 0) || math.IsNaN(nrmse) || nrmse > 1e8 {
			return true
		}
		back := math.Pow(10, -PSNRFromNRMSE(nrmse)/20)
		return almostEqual(back, nrmse, 1e-9*nrmse)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPSNRSpecialCases(t *testing.T) {
	if !math.IsInf(PSNRFromNRMSE(0), 1) {
		t.Fatal("PSNR of 0 NRMSE should be +Inf")
	}
	if !math.IsInf(PSNRFromNRMSE(math.Inf(1)), -1) {
		t.Fatal("PSNR of +Inf NRMSE should be -Inf")
	}
}
