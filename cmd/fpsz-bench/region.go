package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"fixedpsnr"
)

// RegionRecord is one mixed-target benchmark datapoint: a middle-rows
// region of interest held at a fixed PSNR while the background is
// steered to a fixed ratio, with both groups' achieved statistics and
// the end-to-end encode throughput including every steering pass.
type RegionRecord struct {
	Name          string  `json:"name"`
	Codec         string  `json:"codec"`
	Dims          []int   `json:"dims"`
	ROIPSNRTarget float64 `json:"roi_psnr_target_db"`
	ROIPSNR       float64 `json:"roi_psnr_db"`
	ROIPasses     int     `json:"roi_passes"`
	ROIChunks     int     `json:"roi_chunks"`
	BGRatioTarget float64 `json:"bg_ratio_target"`
	BGRatio       float64 `json:"bg_ratio,omitempty"`
	// BGRatioUnmeasured marks a background group that owns no chunk —
	// on a small grid the region of interest can claim the only one —
	// so it has no ratio; BGRatio is then omitted.
	BGRatioUnmeasured bool    `json:"bg_ratio_unmeasured,omitempty"`
	BGPasses          int     `json:"bg_passes"`
	StreamRatio       float64 `json:"stream_ratio"`
	DecodedROIPSNR    float64 `json:"decoded_roi_psnr_db"`
	EncodeMBps        float64 `json:"encode_mb_per_s"`
	TotalFieldPSNR    float64 `json:"field_psnr_db"`
	CompressedBytes   int     `json:"compressed_bytes"`
}

// regionMain sweeps the per-region quality targets over the synthetic
// benchmark field: ROI PSNR fixed, background ratio swept, emitting one
// record per background target — the ROI-PSNR-vs-background-ratio
// datapoints of the per-region steering stack.
func regionMain(args []string) error {
	fs := flag.NewFlagSet("region", flag.ExitOnError)
	pf := registerProfileFlags(fs)
	var (
		dimsArg   = fs.String("dims", "64x96x96", "synthetic field grid")
		roiPSNR   = fs.Float64("roipsnr", 80, "region-of-interest PSNR target in dB")
		ratiosArg = fs.String("bgratios", "8,16", "comma-separated background ratio targets")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		out       = fs.String("out", "-", "JSON output path (default stdout)")
	)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	recs, err := regionRecords(*dimsArg, *roiPSNR, *ratiosArg, *workers)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := writeJSON(*out, blob); err != nil {
		return err
	}
	if *out != "-" {
		for _, r := range recs {
			fmt.Printf("%s: ROI %.2f dB (target %g, %d passes), background ratio %.2f (target %g, %d passes), %.1f MB/s\n",
				r.Name, r.ROIPSNR, r.ROIPSNRTarget, r.ROIPasses, r.BGRatio, r.BGRatioTarget, r.BGPasses, r.EncodeMBps)
		}
	}
	return nil
}

// regionRecords runs the mixed-target sweep on the sz pipeline (the one
// that measures MSE and so can steer PSNR per region).
func regionRecords(dimsArg string, roiPSNR float64, ratiosArg string, workers int) ([]RegionRecord, error) {
	dims, err := parseDims(dimsArg, 3)
	if err != nil {
		return nil, err
	}
	if dims == nil {
		return nil, fmt.Errorf("region: -dims is required")
	}
	ratios, err := parseFloats(ratiosArg)
	if err != nil {
		return nil, err
	}
	f := synthFieldForBench(dims)

	// ROI: the middle quarter of the rows, full extent elsewhere.
	roiOff := []int{dims[0] * 3 / 8, 0, 0}
	roiExt := []int{dims[0] / 4, dims[1], dims[2]}

	var recs []RegionRecord
	for _, target := range ratios {
		opt := fixedpsnr.Options{
			Mode:        fixedpsnr.ModeRatio,
			TargetRatio: target,
			Workers:     workers,
			ChunkPoints: fixedpsnr.MinChunkPoints,
			RegionTargets: []fixedpsnr.RegionTarget{{
				Region:     fixedpsnr.Region{Off: roiOff, Ext: roiExt},
				Mode:       fixedpsnr.ModePSNR,
				TargetPSNR: roiPSNR,
			}},
		}
		start := time.Now()
		blob, res, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			return nil, fmt.Errorf("region: bg ratio %g: %w", target, err)
		}
		secs := time.Since(start).Seconds()
		if len(res.Regions) != 2 {
			return nil, fmt.Errorf("region: got %d groups", len(res.Regions))
		}
		roi, bg := res.Regions[0], res.Regions[1]

		// Verify through a real decode: field-wide PSNR and ROI PSNR
		// against the global value range.
		recon, _, err := fixedpsnr.Decompress(blob)
		if err != nil {
			return nil, err
		}
		d := fixedpsnr.CompareFields(f, recon)
		sub, err := recon.Slice(roiOff, roiExt)
		if err != nil {
			return nil, err
		}
		orig, err := f.Slice(roiOff, roiExt)
		if err != nil {
			return nil, err
		}
		var sumSq float64
		for i := range sub.Data {
			e := sub.Data[i] - orig.Data[i]
			sumSq += e * e
		}
		_, _, vr := f.ValueRange()
		decodedROIPSNR := math.Inf(1)
		if mse := sumSq / float64(len(sub.Data)); mse > 0 {
			decodedROIPSNR = -10*math.Log10(mse) + 20*math.Log10(vr)
		}

		rec := RegionRecord{
			Name:            "region_" + dimsArg + "_bg" + strings.ReplaceAll(fmt.Sprintf("%g", target), ".", "_"),
			Codec:           "sz",
			Dims:            dims,
			ROIPSNRTarget:   roiPSNR,
			ROIPSNR:         roi.AchievedPSNR,
			ROIPasses:       roi.Passes,
			ROIChunks:       roi.Chunks,
			BGRatioTarget:   target,
			BGRatio:         bg.AchievedRatio,
			BGPasses:        bg.Passes,
			StreamRatio:     res.Ratio,
			DecodedROIPSNR:  decodedROIPSNR,
			EncodeMBps:      float64(res.OriginalBytes) / (1 << 20) / secs,
			TotalFieldPSNR:  d.PSNR,
			CompressedBytes: res.CompressedBytes,
		}
		if bg.Chunks == 0 {
			rec.BGRatio, rec.BGRatioUnmeasured = 0, true
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
