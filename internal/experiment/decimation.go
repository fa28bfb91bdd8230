package experiment

import (
	"fmt"
	"io"
	"math"

	"fixedpsnr"
	"fixedpsnr/internal/core"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/field"
)

// DecimationRow is one storage strategy in the temporal-decimation study:
// either HACC-style "keep every k-th snapshot" or fixed-PSNR compression
// of every snapshot, at the storage it actually consumes.
type DecimationRow struct {
	Method string  // "decimate k=4" or "fixed-PSNR 60 dB"
	Bits   float64 // stored bits per original value
	PSNR   float64 // pooled PSNR of the reconstructed series
	// Snapshots is the fraction of time steps individually represented
	// (decimation loses the skipped ones; compression keeps all).
	Snapshots float64
}

// DecimationResult is the full study.
type DecimationResult struct {
	Steps int
	Dims  []int
	Rows  []DecimationRow
}

// Decimation reproduces the introduction's motivating trade-off: HACC
// controls data volume by dumping every k-th snapshot, which destroys
// temporal continuity; error-controlled lossy compression of *every*
// snapshot spends the same storage on bounded pointwise loss instead.
// The study reconstructs skipped snapshots by linear interpolation in
// time (the best a decimated archive can do) and compares pooled PSNR at
// matched storage.
func Decimation(cfg Config) (*DecimationResult, error) {
	const steps = 32
	dims := []int{96, 192}
	series, err := datagen.TimeSeries(dims, steps, datagen.TimeSeriesOptions{
		Beta:    3.4,
		Rho:     0.9,
		Seed:    12345,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}

	res := &DecimationResult{Steps: steps, Dims: dims}

	// Pooled value range over the whole series (PSNR baseline).
	vrLo, vrHi := math.Inf(1), math.Inf(-1)
	for _, f := range series {
		lo, hi, _ := f.ValueRange()
		if lo < vrLo {
			vrLo = lo
		}
		if hi > vrHi {
			vrHi = hi
		}
	}
	vr := vrHi - vrLo
	n := series[0].Len()

	pooledPSNR := func(recon []*field.Field) float64 {
		var sumSq float64
		for t := range series {
			for i := range series[t].Data {
				d := series[t].Data[i] - recon[t].Data[i]
				sumSq += d * d
			}
		}
		return core.PSNR(sumSq/float64(steps*n), vr)
	}

	// --- HACC-style decimation ----------------------------------------
	for _, k := range []int{2, 4, 8} {
		recon := make([]*field.Field, steps)
		kept := 0
		for t := 0; t < steps; t++ {
			if t%k == 0 {
				recon[t] = series[t]
				kept++
			}
		}
		for t := 0; t < steps; t++ {
			if recon[t] != nil {
				continue
			}
			t0 := (t / k) * k
			t1 := t0 + k
			if t1 >= steps {
				recon[t] = recon[t0]
				continue
			}
			w := float64(t-t0) / float64(k)
			g := field.New(series[t].Name, series[t].Precision, dims...)
			for i := range g.Data {
				g.Data[i] = (1-w)*series[t0].Data[i] + w*series[t1].Data[i]
			}
			recon[t] = g
		}
		res.Rows = append(res.Rows, DecimationRow{
			Method:    fmt.Sprintf("decimate k=%d + lerp", k),
			Bits:      32 * float64(kept) / float64(steps),
			PSNR:      pooledPSNR(recon),
			Snapshots: float64(kept) / float64(steps),
		})
	}

	// --- Fixed-PSNR compression of every snapshot ----------------------
	for _, target := range []float64{40, 60, 80, 100} {
		recon := make([]*field.Field, steps)
		var totalBits float64
		for t, f := range series {
			stream, r, err := fixedpsnr.Compress(f, fixedpsnr.Options{
				Mode:       fixedpsnr.ModePSNR,
				TargetPSNR: target,
				Workers:    cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			g, _, err := fixedpsnr.Decompress(stream)
			if err != nil {
				return nil, err
			}
			recon[t] = g
			totalBits += r.BitRate
		}
		res.Rows = append(res.Rows, DecimationRow{
			Method:    fmt.Sprintf("fixed-PSNR %g dB, all snapshots", target),
			Bits:      totalBits / float64(steps),
			PSNR:      pooledPSNR(recon),
			Snapshots: 1,
		})
	}
	return res, nil
}

// RenderDecimation prints the study.
func RenderDecimation(w io.Writer, r *DecimationResult) {
	fmt.Fprintf(w, "DECIMATION — temporal decimation (the HACC workaround) vs fixed-PSNR compression\n")
	fmt.Fprintf(w, "(%d snapshots of a %v field; pooled PSNR over the whole series)\n", r.Steps, r.Dims)
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Method,
			fmt.Sprintf("%.2f", row.Bits),
			fmtF(row.PSNR, 1),
			fmt.Sprintf("%.0f%%", 100*row.Snapshots),
		}
	}
	writeTable(w, []string{"Method", "bits/value", "pooled PSNR (dB)", "time steps kept"}, rows)
	fmt.Fprintln(w, "(at matched storage, compressing every snapshot dominates decimation and keeps the full time axis)")
}
