package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

// ChunkRecord is the chunked-encoder benchmark record: compression ratio,
// achieved PSNR, encode throughput, and peak memory of one streaming
// encode over a synthetic 3-D field.
type ChunkRecord struct {
	Name          string  `json:"name"`
	Dims          []int   `json:"dims"`
	Points        int     `json:"points"`
	TargetPSNR    float64 `json:"target_psnr_db"`
	MeasuredPSNR  float64 `json:"measured_psnr_db"`
	Ratio         float64 `json:"ratio"`
	BitRate       float64 `json:"bit_rate"`
	Chunks        int     `json:"chunks"`
	ChunkPoints   int     `json:"chunk_points"`
	EncodeSeconds float64 `json:"encode_seconds"`
	EncodeMBps    float64 `json:"encode_mb_per_s"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes"`
	HeapSysBytes  uint64  `json:"heap_sys_bytes"`
}

// synthReader generates the chunkbench field (datagen.ChunkBench) on the
// fly, inside its declared [-2, 2] envelope.
type synthReader struct {
	dims []int
	pos  int
	n    int
}

func (r *synthReader) Spec() (fixedpsnr.FieldSpec, error) {
	return fixedpsnr.FieldSpec{
		Name:      "chunkbench",
		Precision: fixedpsnr.Float32,
		Dims:      r.dims,
		Min:       -2,
		Max:       2,
		HasRange:  true,
	}, nil
}

func (r *synthReader) ReadValues(dst []float64) (int, error) {
	if r.pos >= r.n {
		return 0, io.EOF
	}
	n := len(dst)
	if n > r.n-r.pos {
		n = r.n - r.pos
	}
	datagen.ChunkBench(dst[:n], r.pos, r.dims)
	r.pos += n
	return n, nil
}

// synthFieldForBench materializes the benchmark field for callers that
// need the values in memory (ratio steering, PSNR verification).
func synthFieldForBench(dims []int) *fixedpsnr.Field {
	f := fixedpsnr.NewField("chunkbench", fixedpsnr.Float32, dims...)
	datagen.ChunkBench(f.Data, 0, dims)
	return f
}

// chunkMain benchmarks the chunked encoder end to end on a synthetic 3-D
// field. The encode runs through Encoder.EncodeFrom with a
// generator-backed FieldReader: the input field is synthesized row by row
// and never materialized, which is exactly the out-of-core path the
// chunked pipeline exists for. The decode + PSNR verification then
// materializes the field once for comparison.
func chunkMain(args []string) error {
	fs := flag.NewFlagSet("chunk", flag.ExitOnError)
	pf := registerProfileFlags(fs)
	var (
		dimsArg     = fs.String("dims", "256x384x384", "synthetic field grid")
		psnr        = fs.Float64("psnr", 80, "target PSNR in dB")
		chunkPoints = fs.Int("chunkpoints", fixedpsnr.DefaultChunkPoints, "chunk size in points")
		workers     = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		out         = fs.String("out", "-", "JSON output path (default stdout)")
	)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	rec, err := chunkRecord(*dimsArg, *psnr, *chunkPoints, *workers)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent([]ChunkRecord{rec}, "", "  ")
	if err != nil {
		return err
	}
	if err := writeJSON(*out, blob); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Printf("%s: %.2f dB (target %g), ratio %.2f, %.1f MB/s, peak RSS %.1f MB -> %s\n",
			rec.Name, rec.MeasuredPSNR, rec.TargetPSNR, rec.Ratio, rec.EncodeMBps,
			float64(rec.PeakRSSBytes)/(1<<20), *out)
	}
	return nil
}

// chunkRecord runs one streaming encode + verification and builds the
// record.
func chunkRecord(dimsArg string, psnr float64, chunkPoints, workers int) (ChunkRecord, error) {
	dims, err := parseDims(dimsArg, 3)
	if err != nil {
		return ChunkRecord{}, err
	}
	if dims == nil {
		return ChunkRecord{}, fmt.Errorf("chunk: -dims is required")
	}
	n := dims[0] * dims[1] * dims[2]

	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(psnr),
		fixedpsnr.WithChunkPoints(chunkPoints),
		fixedpsnr.WithWorkers(workers),
	)
	if err != nil {
		return ChunkRecord{}, err
	}

	start := time.Now()
	blob, res, err := enc.EncodeFrom(context.Background(), &synthReader{dims: dims, n: n})
	if err != nil {
		return ChunkRecord{}, err
	}
	encodeSecs := time.Since(start).Seconds()

	// Verify: decode and compare against the regenerated original.
	recon, info, err := fixedpsnr.Decompress(blob)
	if err != nil {
		return ChunkRecord{}, err
	}
	d := fixedpsnr.CompareFields(synthFieldForBench(dims), recon)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ChunkRecord{
		Name:          "chunked_encode_" + dimsArg,
		Dims:          dims,
		Points:        n,
		TargetPSNR:    psnr,
		MeasuredPSNR:  d.PSNR,
		Ratio:         res.Ratio,
		BitRate:       res.BitRate,
		Chunks:        len(info.Chunks),
		ChunkPoints:   chunkPoints,
		EncodeSeconds: encodeSecs,
		EncodeMBps:    float64(res.OriginalBytes) / (1 << 20) / encodeSecs,
		PeakRSSBytes:  peakRSSBytes(),
		HeapSysBytes:  ms.HeapSys,
	}, nil
}
