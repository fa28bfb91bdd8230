package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
)

// OverheadRow quantifies the paper's "negligible overhead" claim for one
// field: the cost of the Eq. 8 bound derivation (including the value-range
// scan it needs) against the cost of one full compression.
type OverheadRow struct {
	Dataset     string
	Field       string
	PlanNS      int64   // value-range scan + Eq. 8
	Eq8OnlyNS   int64   // the closed-form arithmetic alone
	CompressNS  int64   // one full error-bounded compression
	OverheadPct float64 // 100·Plan/Compress
}

// Overhead measures the fixed-PSNR planning cost on the first field of
// each data set.
func Overhead(cfg Config) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, ds := range cfg.Datasets() {
		f, err := ds.Field(0, cfg.Workers)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		_, _, vr := f.ValueRange()
		plan, err := core.PlanFixedPSNR(80, vr)
		if err != nil {
			return nil, err
		}
		planNS := time.Since(start).Nanoseconds()

		// The pure Eq. 8 arithmetic, excluding the range scan a
		// compressor needs anyway. Loop to get above timer resolution.
		const iters = 1000
		start = time.Now()
		sink := 0.0
		for i := 0; i < iters; i++ {
			sink += core.RelBoundForPSNR(80 + float64(i%3))
		}
		eq8NS := time.Since(start).Nanoseconds() / iters
		_ = sink

		c, ok := codec.ByName("sz")
		if !ok {
			return nil, fmt.Errorf("experiment: sz codec not registered")
		}
		start = time.Now()
		if _, _, err := codec.Encode(context.Background(), f, c, codec.Options{ErrorBound: plan.EbAbs, Workers: cfg.Workers}, nil); err != nil {
			return nil, err
		}
		compressNS := time.Since(start).Nanoseconds()

		rows = append(rows, OverheadRow{
			Dataset:     ds.Name,
			Field:       f.Name,
			PlanNS:      planNS,
			Eq8OnlyNS:   eq8NS,
			CompressNS:  compressNS,
			OverheadPct: 100 * float64(planNS) / float64(compressNS),
		})
	}
	return rows, nil
}

// RenderOverhead prints the overhead table.
func RenderOverhead(w io.Writer, rows []OverheadRow) {
	fmt.Fprintln(w, "OVERHEAD — fixed-PSNR bound derivation vs one compression (paper §IV: \"negligible\")")
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Dataset, r.Field,
			fmt.Sprintf("%.3f ms", float64(r.PlanNS)/1e6),
			fmt.Sprintf("%d ns", r.Eq8OnlyNS),
			fmt.Sprintf("%.1f ms", float64(r.CompressNS)/1e6),
			fmt.Sprintf("%.3f%%", r.OverheadPct),
		}
	}
	writeTable(w, []string{"Dataset", "Field", "plan (range+Eq.8)", "Eq.8 alone", "compression", "overhead"}, out)
}
