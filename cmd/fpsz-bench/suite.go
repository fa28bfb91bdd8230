package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"fixedpsnr"
)

// SuiteRecord is the combined per-PR benchmark artifact: the chunked
// streaming-encoder record, the fixed-ratio accuracy datapoints, the
// mixed-target region datapoints (ROI PSNR vs background ratio), and
// (when -gobench is given) the parsed `go test -bench` session results —
// one JSON file instead of one file per tool.
type SuiteRecord struct {
	Chunked    []ChunkRecord      `json:"chunked"`
	FixedRatio []RatioRecord      `json:"fixed_ratio"`
	Region     []RegionRecord     `json:"region"`
	Serve      []ServeRecord      `json:"serve,omitempty"`
	GoBench    []GoBenchResult    `json:"go_bench,omitempty"`
	Throughput []ThroughputRecord `json:"throughput,omitempty"`
}

// ThroughputRecord is one encode/decode throughput datapoint distilled
// from the BenchmarkChunked{Encode,Decode}{1Core,AllCores} go-bench
// results: single-core and all-core MB/s on the chunked benchmark field,
// plus the parallel scaling factor between them.
type ThroughputRecord struct {
	Op           string  `json:"op"` // "encode" or "decode"
	OneCoreMBps  float64 `json:"one_core_mb_per_sec"`
	AllCoresMBps float64 `json:"all_cores_mb_per_sec"`
	Scaling      float64 `json:"scaling,omitempty"` // all-cores / one-core
	Cores        int     `json:"cores"`             // GOMAXPROCS of the all-core run
	// ScalingEfficiency is Scaling normalized by the core count: 1.0 is
	// perfect linear scaling, and the ISSUE 9 all-core target is ≥ 0.7.
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	// ScalingUnmeasured marks a record whose all-core run had fewer than
	// two cores: its all-core/1-core ratio is noise, not scaling, so
	// Scaling and ScalingEfficiency stay unset.
	ScalingUnmeasured bool `json:"scaling_unmeasured,omitempty"`
}

// throughputRecords distills the chunked encode/decode datapoints from
// parsed go-bench results. Missing benchmarks yield zero-valued fields;
// an op with neither datapoint is omitted. The core count is the
// all-core benchmark's GOMAXPROCS; below two cores the record is marked
// unmeasured instead of carrying a scaling factor.
func throughputRecords(gb []GoBenchResult) []ThroughputRecord {
	byName := make(map[string]GoBenchResult, len(gb))
	for _, r := range gb {
		byName[r.Name] = r
	}
	var out []ThroughputRecord
	for _, op := range []string{"Encode", "Decode"} {
		one := byName["BenchmarkChunked"+op+"1Core"]
		all := byName["BenchmarkChunked"+op+"AllCores"]
		if one.MBPerSec == 0 && all.MBPerSec == 0 {
			continue
		}
		tr := ThroughputRecord{Op: strings.ToLower(op), OneCoreMBps: one.MBPerSec, AllCoresMBps: all.MBPerSec, Cores: all.Procs}
		switch {
		case tr.Cores < 2:
			tr.ScalingUnmeasured = true
		case one.MBPerSec > 0:
			tr.Scaling = all.MBPerSec / one.MBPerSec
			tr.ScalingEfficiency = tr.Scaling / float64(tr.Cores)
		}
		out = append(out, tr)
	}
	return out
}

// checkThroughput enforces the CI contract: both ops present, with
// non-zero single-core and all-core MB/s and a recorded scaling factor
// (or a record marked unmeasured on one core, which checkScaling
// rejects).
func checkThroughput(recs []ThroughputRecord) error {
	if len(recs) != 2 {
		return fmt.Errorf("throughput: want encode and decode datapoints, got %d", len(recs))
	}
	for _, r := range recs {
		if !(r.OneCoreMBps > 0) || !(r.AllCoresMBps > 0) {
			return fmt.Errorf("throughput: %s MB/s not positive (1-core %.2f, all-cores %.2f)", r.Op, r.OneCoreMBps, r.AllCoresMBps)
		}
		if !r.ScalingUnmeasured && !(r.Scaling > 0) {
			return fmt.Errorf("throughput: %s scaling factor missing", r.Op)
		}
	}
	return nil
}

// checkScaling enforces a parallel-scaling floor: every throughput
// datapoint's all-core/1-core factor must be at least `factor`. It is
// the CI guard against regressions that serialize the chunk pipeline
// (a lock on the scratch pools, a single-threaded stage) without
// slowing the single-core numbers. A record measured on fewer than two
// cores fails: one core cannot show scaling, so passing or failing it
// would be decided by noise.
func checkScaling(recs []ThroughputRecord, factor float64) error {
	// Both ops must be present: a go-bench run that dropped the decode
	// benchmarks used to sail through this loop with only the encode
	// datapoint, leaving decode scaling unguarded.
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		seen[r.Op] = true
		if r.ScalingUnmeasured {
			return fmt.Errorf("scaling: %s scaling unmeasured: the all-core run had %d core(s), and scaling needs at least 2",
				r.Op, r.Cores)
		}
		if !(r.Scaling >= factor) {
			return fmt.Errorf("scaling: %s all-core/1-core factor %.2f below required %.2f (1-core %.2f MB/s, all-cores %.2f MB/s on %d cores)",
				r.Op, r.Scaling, factor, r.OneCoreMBps, r.AllCoresMBps, r.Cores)
		}
	}
	for _, op := range []string{"encode", "decode"} {
		if !seen[op] {
			return fmt.Errorf("scaling: no %s throughput datapoint (need 1-core and all-core go-bench runs for both ops)", op)
		}
	}
	return nil
}

// suiteMain runs the chunked-encoder benchmark, the fixed-ratio sweep,
// and the mixed-target region sweep, and emits one combined JSON record
// (BENCH_pr5.json in CI).
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	pf := registerProfileFlags(fs)
	var (
		chunkDims     = fs.String("dims", "256x384x384", "chunked benchmark grid")
		psnr          = fs.Float64("psnr", 80, "chunked benchmark target PSNR in dB")
		chunkPoints   = fs.Int("chunkpoints", fixedpsnr.DefaultChunkPoints, "chunked benchmark chunk size in points")
		ratioDims     = fs.String("ratiodims", "64x96x96", "fixed-ratio sweep grid")
		ratiosArg     = fs.String("ratios", "8,16,32", "fixed-ratio sweep targets")
		codecsArg     = fs.String("codecs", "sz,otc", "fixed-ratio sweep codecs")
		regionDims    = fs.String("regiondims", "64x96x96", "region sweep grid")
		roiPSNR       = fs.Float64("roipsnr", 80, "region sweep ROI PSNR target in dB")
		bgRatiosArg   = fs.String("bgratios", "8,16", "region sweep background ratio targets")
		withServe     = fs.Bool("serve", false, "include the archive-service load test")
		serveDims     = fs.String("servedims", "96x96x96", "serve load-test per-field grid")
		serveFields   = fs.Int("servefields", 2, "serve load-test fields per archive")
		serveReaders  = fs.Int("servereaders", 200, "serve load-test concurrent readers")
		serveRequests = fs.Int("serverequests", 4000, "serve load-test total requests")
		workers       = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		gobenchPath   = fs.String("gobench", "", "optional `go test -bench` output to fold in")
		requireTP     = fs.Bool("require-throughput", false, "fail unless chunked encode/decode 1-core and all-core MB/s datapoints are present and non-zero")
		requireScale  = fs.Float64("require-scaling", 0, "fail unless every throughput datapoint's all-core/1-core scaling factor is at least this value (0 = no check)")
		out           = fs.String("out", "-", "JSON output path (default stdout)")
	)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	chunk, err := chunkRecord(*chunkDims, *psnr, *chunkPoints, *workers)
	if err != nil {
		return fmt.Errorf("suite: chunk benchmark: %w", err)
	}
	ratios, err := ratioRecords(*ratioDims, *ratiosArg, *codecsArg, *workers)
	if err != nil {
		return fmt.Errorf("suite: ratio sweep: %w", err)
	}
	regions, err := regionRecords(*regionDims, *roiPSNR, *bgRatiosArg, *workers)
	if err != nil {
		return fmt.Errorf("suite: region sweep: %w", err)
	}
	rec := SuiteRecord{Chunked: []ChunkRecord{chunk}, FixedRatio: ratios, Region: regions}
	if *withServe {
		sr, err := serveRecord(*serveDims, *serveFields, *serveReaders, *serveRequests, 64, 1.2, 256)
		if err != nil {
			return fmt.Errorf("suite: serve load test: %w", err)
		}
		if sr.FailedRequests > 0 || sr.MismatchedByte > 0 {
			return fmt.Errorf("suite: serve load test: %d failed requests, %d mismatched responses (want 0/0)",
				sr.FailedRequests, sr.MismatchedByte)
		}
		rec.Serve = []ServeRecord{sr}
	}
	if *gobenchPath != "" {
		gb, err := parseGoBenchFile(*gobenchPath)
		if err != nil {
			return fmt.Errorf("suite: gobench: %w", err)
		}
		rec.GoBench = gb
		rec.Throughput = throughputRecords(gb)
	}
	if *requireTP {
		if err := checkThroughput(rec.Throughput); err != nil {
			return fmt.Errorf("suite: %w", err)
		}
	}
	if *requireScale > 0 {
		if err := checkScaling(rec.Throughput, *requireScale); err != nil {
			return fmt.Errorf("suite: %w", err)
		}
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := writeJSON(*out, blob); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Printf("suite: chunked %.1f MB/s @ %.2f dB; %d fixed-ratio datapoints; %d region datapoints; %d go-bench results -> %s\n",
			chunk.EncodeMBps, chunk.MeasuredPSNR, len(ratios), len(regions), len(rec.GoBench), *out)
	}
	return nil
}
