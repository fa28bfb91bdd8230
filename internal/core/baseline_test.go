package core

import (
	"errors"
	"math"
	"testing"
)

// analyticProbe simulates a compressor whose PSNR follows Eq. 7 plus a
// fixed bias, so the search target is reachable and monotone.
func analyticProbe(bias float64, count *int) CompressProbe {
	return func(ebRel float64) (float64, error) {
		*count++
		return EstimatePSNRFromAbsBound(1, ebRel) + bias, nil
	}
}

func TestIterativeSearchConverges(t *testing.T) {
	for _, target := range []float64{25, 60, 95, 130} {
		count := 0
		res, err := IterativeSearch(target, 0.5, 60, analyticProbe(1.7, &count))
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if !res.Converged {
			t.Fatalf("target %g did not converge: %+v", target, res)
		}
		if math.Abs(res.ActualPSNR-target) > 0.5 {
			t.Fatalf("target %g: actual %g", target, res.ActualPSNR)
		}
		if res.Iterations != count {
			t.Fatalf("iteration accounting mismatch: %d vs %d", res.Iterations, count)
		}
		if res.Iterations < 2 {
			t.Fatalf("target %g: suspiciously few iterations (%d) — the baseline should need several probes", target, res.Iterations)
		}
	}
}

func TestIterativeSearchImmediateHit(t *testing.T) {
	// Target exactly at the first probe's PSNR converges in one step.
	count := 0
	probe := analyticProbe(0, &count)
	first, _ := probe(1e-3)
	count = 0
	res, err := IterativeSearch(first, 0.5, 60, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("expected 1-probe convergence, got %+v", res)
	}
}

func TestIterativeSearchPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := IterativeSearch(60, 0.5, 10, func(float64) (float64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestIterativeSearchRespectsMaxIter(t *testing.T) {
	// A probe that never lands inside the tolerance but stays monotone.
	count := 0
	res, err := IterativeSearch(60, 1e-12, 7, analyticProbe(0.3, &count))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge with zero-width tolerance")
	}
	if res.Iterations != 7 {
		t.Fatalf("iterations = %d, want 7", res.Iterations)
	}
}

func TestIterativeSearchDefaults(t *testing.T) {
	// Non-positive tol and maxIter take defaults without panicking.
	count := 0
	res, err := IterativeSearch(60, 0, 0, analyticProbe(0, &count))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("default-parameter search failed: %+v", res)
	}
}

func TestIterativeSearchLowTarget(t *testing.T) {
	// Target below the first probe's PSNR forces the increase branch.
	count := 0
	res, err := IterativeSearch(12, 0.5, 60, analyticProbe(0, &count))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("low target did not converge: %+v", res)
	}
	if res.EbRel <= 1e-3 {
		t.Fatalf("low target should need a larger bound than the start: %g", res.EbRel)
	}
}
