package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/stats"
	_ "fixedpsnr/internal/sz" // register the sz codec
)

// BaselineRow compares the paper's motivating workflow — iteratively
// re-running the compressor until the measured PSNR lands near the target
// — against the one-shot fixed-PSNR mode, on one field.
type BaselineRow struct {
	Dataset string
	Field   string
	Target  float64

	// Iterative search (the traditional workflow).
	SearchIterations int
	SearchMS         float64
	SearchActual     float64

	// Fixed-PSNR mode (one compression).
	FixedMS     float64
	FixedActual float64

	// Speedup is SearchMS / FixedMS.
	Speedup float64
}

// Baseline runs the comparison on the first field of each data set at the
// given targets.
func Baseline(cfg Config, targets []float64) ([]BaselineRow, error) {
	if len(targets) == 0 {
		targets = []float64{40, 80}
	}
	var rows []BaselineRow
	for _, ds := range cfg.Datasets() {
		f, err := ds.Field(0, cfg.Workers)
		if err != nil {
			return nil, err
		}
		_, _, vr := f.ValueRange()
		for _, target := range targets {
			probe := func(ebRel float64) (float64, error) {
				return probePSNR(f, ebRel*vr, cfg.Workers)
			}
			start := time.Now()
			sr, err := core.IterativeSearch(target, 0.5, 40, probe)
			searchMS := float64(time.Since(start).Microseconds()) / 1000
			if err != nil {
				return nil, fmt.Errorf("experiment: baseline %s @ %g: %w", f.Name, target, err)
			}

			start = time.Now()
			run, err := RunFixedPSNR(f, target, cfg.Workers)
			fixedMS := float64(time.Since(start).Microseconds()) / 1000
			if err != nil {
				return nil, err
			}

			row := BaselineRow{
				Dataset:          ds.Name,
				Field:            f.Name,
				Target:           target,
				SearchIterations: sr.Iterations,
				SearchMS:         searchMS,
				SearchActual:     sr.ActualPSNR,
				FixedMS:          fixedMS,
				FixedActual:      run.Actual,
			}
			if fixedMS > 0 {
				row.Speedup = searchMS / fixedMS
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// probePSNR performs one full compress+decompress cycle at an absolute
// bound and returns the measured PSNR — the unit of work the iterative
// workflow repeats. It runs through the codec registry so the experiment
// exercises the same routing as the public API.
func probePSNR(f *field.Field, ebAbs float64, workers int) (float64, error) {
	c, ok := codec.ByName("sz")
	if !ok {
		return 0, fmt.Errorf("experiment: sz codec not registered")
	}
	blob, _, err := codec.Encode(context.Background(), f, c, codec.Options{ErrorBound: ebAbs, Workers: workers}, nil)
	if err != nil {
		return 0, err
	}
	g, _, err := codec.Decompress(blob)
	if err != nil {
		return 0, err
	}
	return stats.Compare(f.Data, g.Data).PSNR, nil
}

// RenderBaseline prints the comparison.
func RenderBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintln(w, "BASELINE — iterative error-bound tuning vs one-shot fixed-PSNR")
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Dataset, r.Field, fmtF(r.Target, 0),
			fmt.Sprintf("%d", r.SearchIterations),
			fmt.Sprintf("%.1f ms", r.SearchMS),
			fmtF(r.SearchActual, 1),
			"1",
			fmt.Sprintf("%.1f ms", r.FixedMS),
			fmtF(r.FixedActual, 1),
			fmt.Sprintf("%.1fx", r.Speedup),
		}
	}
	writeTable(w, []string{
		"Dataset", "Field", "Target",
		"search iters", "search time", "search PSNR",
		"fixed iters", "fixed time", "fixed PSNR", "speedup",
	}, out)
}
