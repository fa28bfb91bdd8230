package main

import (
	"context"
	"fmt"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

// Grids of the psnr-sweep snapshot: a NYX set (6 fields) and a Hurricane
// set (13 fields), 52 MB of float32 in all. ratio-steer runs two
// Hurricane snapshots of half the height (26 fields, 26 MB): twice the
// distinct fields for the same bytes, so its latency tail is not set by
// the two or three slowest fields of one seed.
var (
	nyxDims        = []int{64, 128, 128}
	hurricaneDims  = []int{32, 128, 128}
	ratioSteerDims = []int{16, 128, 128}
)

// psnrTargets are the psnr-sweep targets in dB: 30 dB takes the most
// steering passes, 90 dB a single pass with the most Huffman and literal
// work.
var psnrTargets = []float64{30, 60, 90}

// ratioTargets and ratioCodecs span the ratio-steer grid. The high
// target is 16, not 32: at R = 32 the internal DEFLATE encoder emits an
// invalid dynamic header for some Huffman blocks of both pipelines
// (zlib: "invalid code lengths set"; e.g. seed 33 field PRECIP on otc,
// seed 17 field QSNOW_t1 on sz), which the decode check reports as a
// failure.
var (
	ratioTargets = []float64{8, 16}
	ratioCodecs  = []fixedpsnr.Compressor{fixedpsnr.CompressorSZ, fixedpsnr.CompressorTransform}
)

// runPSNRSweep is the paper's use case: calibrated fixed-PSNR Encode of a
// multi-field snapshot at each target, then a full Decode of every
// stream.
func runPSNRSweep(cfg config, rep *report) error {
	var cases []sweepCase
	for _, t := range psnrTargets {
		cases = append(cases, sweepCase{
			label: fmt.Sprintf("psnr%g", t),
			opts: []fixedpsnr.Option{
				fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(t),
				fixedpsnr.WithCalibrated(true), fixedpsnr.WithWorkers(cfg.nproc),
			},
			targetPSNR: t,
		})
	}
	build := func() ([]*fixedpsnr.Field, error) {
		return synthFields(cfg.seed, cfg.nproc, datagen.NYX(nyxDims), datagen.Hurricane(hurricaneDims))
	}
	return runSweep(cfg, rep, build, cases, true)
}

// runRatioSteer runs fixed-ratio encodes of two Hurricane snapshots at
// each ratio target on both pipelines, then decodes every stream.
func runRatioSteer(cfg config, rep *report) error {
	var cases []sweepCase
	for _, comp := range ratioCodecs {
		for _, r := range ratioTargets {
			cases = append(cases, sweepCase{
				label: fmt.Sprintf("%s_r%g", comp, r),
				opts: []fixedpsnr.Option{
					fixedpsnr.WithMode(fixedpsnr.ModeRatio), fixedpsnr.WithTargetRatio(r),
					fixedpsnr.WithCompressor(comp), fixedpsnr.WithWorkers(cfg.nproc),
				},
				targetRatio: r,
			})
		}
	}
	build := func() ([]*fixedpsnr.Field, error) {
		t0, t1 := datagen.Hurricane(ratioSteerDims), datagen.Hurricane(ratioSteerDims)
		t1.Name += "/t1"
		fields, err := synthFields(cfg.seed, cfg.nproc, t0, t1)
		// Distinct names keep an Encoder's per-name warm start from
		// carrying one snapshot's bound into the other's.
		for _, f := range fields[len(t0.Specs):] {
			f.Name += "_t1"
		}
		return fields, err
	}
	return runSweep(cfg, rep, build, cases, false)
}

// runSweep runs an encode workload: set-up, the untraced phase, and in a
// traced run the traced phase, the layer replays over the last traced
// repetition's streams and, when scaling is set, the parallel scaling
// measurement.
func runSweep(cfg config, rep *report, build func() ([]*fixedpsnr.Field, error), cases []sweepCase, scaling bool) error {
	fields, setupS, err := timedSetup(build, func([]*fixedpsnr.Field) {})
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = setupS
	sw := &sweep{fields: fields, cases: cases, dec: fixedpsnr.NewDecoder(), tl: &rep.tally}
	un, err := sw.run(cfg.measureFor(), nil)
	if err != nil {
		return err
	}
	un.endToEnd(rep.e2e, rep)
	if !cfg.trace {
		return nil
	}

	tr := newTracer()
	tp, err := sw.run(cfg.measureFor(), tr)
	if err != nil {
		return err
	}
	tp.layerMetrics(rep.layer, cfg.nproc)
	rep.layer["trace.overhead_pct"] = overheadPct(un.meanOpS(), tp.meanOpS())

	rp := newReplayer(tr, &rep.tally)
	dec := fixedpsnr.NewDecoder()
	for _, e := range tp.last {
		g, _, err := dec.Decode(context.Background(), e.blob)
		if err != nil {
			rep.tally.fail("replay %s: decode: %v", e.f.Name, err)
			continue
		}
		rp.stream(e.f, g, e.blob)
	}
	if scaling {
		s, err := measureScaling(cfg, rep, tr, fields[:len(datagen.NYX(nil).Specs)])
		if err != nil {
			return err
		}
		rep.layer["parallel.scaling"] = s
	}
	rep.spans = summarizeSpans(tr.snapshot())
	rp.layerMetrics(rep.layer, rep.spans)
	return nil
}

// measureScaling times Encode of the subset at 60 dB (a single pass) with
// Workers = 1 and Workers = nproc, alternating, and returns the median
// one-worker time over the median nproc-worker time. Below two cores
// there is nothing to scale across: it reports 0 and says so.
func measureScaling(cfg config, rep *report, tr *tracer, subset []*fixedpsnr.Field) (float64, error) {
	if cfg.nproc < 2 {
		rep.note("parallel.scaling unmeasured: %d core", cfg.nproc)
		return 0, nil
	}
	const reps = 3
	times := map[int][]float64{}
	for i := 0; i < reps; i++ {
		for _, w := range []int{1, cfg.nproc} {
			enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(60),
				fixedpsnr.WithCalibrated(true), fixedpsnr.WithWorkers(w))
			if err != nil {
				return 0, err
			}
			sp := tr.begin(fmt.Sprintf("parallel.workers%d", w), -1)
			t0 := time.Now()
			for _, f := range subset {
				if _, _, err := enc.Encode(context.Background(), f); err != nil {
					return 0, err
				}
			}
			times[w] = append(times[w], time.Since(t0).Seconds())
			tr.end(sp)
		}
	}
	return median(times[1]) / median(times[cfg.nproc]), nil
}
