package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"fixedpsnr/internal/experiment"
)

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		rank int
		want []int
		ok   bool
	}{
		{"", 3, nil, true},
		{"64x64x64", 3, []int{64, 64, 64}, true},
		{"180x360", 2, []int{180, 360}, true},
		{"64X32", 2, []int{64, 32}, true}, // case-insensitive separator
		{"64x64", 3, nil, false},          // wrong rank
		{"ax2", 2, nil, false},            // non-numeric
		{"0x4", 2, nil, false},            // non-positive
		{"-3x4", 2, nil, false},
	}
	for _, c := range cases {
		got, err := parseDims(c.in, c.rank)
		if c.ok && err != nil {
			t.Fatalf("parseDims(%q, %d): unexpected error %v", c.in, c.rank, err)
		}
		if !c.ok {
			if err == nil {
				t.Fatalf("parseDims(%q, %d): expected error", c.in, c.rank)
			}
			continue
		}
		if len(got) != len(c.want) {
			t.Fatalf("parseDims(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("parseDims(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nope", cfgForTest(), "", false); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunTable1(t *testing.T) {
	if err := run(io.Discard, "table1", cfgForTest(), "", false); err != nil {
		t.Fatal(err)
	}
}

// cfgForTest keeps CLI tests fast.
func cfgForTest() experiment.Config {
	return experiment.Config{
		NYXDims:       []int{8, 8, 8},
		ATMDims:       []int{16, 32},
		HurricaneDims: []int{4, 16, 16},
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
BenchmarkOneShotCompress-8   	     100	  11481571 ns/op	  87.10 MB/s	 7391472 B/op	      59 allocs/op
BenchmarkEncoderReuse-8      	     200	   5000000 ns/op
some unrelated line
PASS
`
	results, err := parseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkOneShotCompress" || r.Procs != 8 || r.Iterations != 100 ||
		r.NsPerOp != 11481571 || r.MBPerSec != 87.10 || r.BytesPerOp != 7391472 || r.AllocsPerOp != 59 {
		t.Fatalf("first result mismatch: %+v", r)
	}
	if results[1].Name != "BenchmarkEncoderReuse" || results[1].NsPerOp != 5000000 {
		t.Fatalf("second result mismatch: %+v", results[1])
	}
}

func TestRatioRecordsSweep(t *testing.T) {
	recs, err := ratioRecords("16x32x32", "6", "sz", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Codec != "sz" || r.TargetRatio != 6 || r.Passes < 1 || !(r.Achieved > 0) {
		t.Fatalf("implausible record: %+v", r)
	}
}

func TestRatioRecordsRejectsUnknownCodec(t *testing.T) {
	if _, err := ratioRecords("16x32x32", "8", "zstd", 1); err == nil {
		t.Fatal("expected unknown-codec error")
	}
}

func TestThroughputRecords(t *testing.T) {
	gb := []GoBenchResult{
		{Name: "BenchmarkChunkedEncode1Core", MBPerSec: 75.2},
		{Name: "BenchmarkChunkedEncodeAllCores", Procs: 4, MBPerSec: 140.5},
		{Name: "BenchmarkChunkedDecode1Core", MBPerSec: 280.1},
		{Name: "BenchmarkChunkedDecodeAllCores", Procs: 4, MBPerSec: 300.9},
		{Name: "BenchmarkUnrelated", MBPerSec: 1.0},
	}
	recs := throughputRecords(gb)
	if err := checkThroughput(recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Op != "encode" || recs[1].Op != "decode" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].OneCoreMBps != 75.2 || recs[0].AllCoresMBps != 140.5 {
		t.Fatalf("encode datapoints = %+v", recs[0])
	}
	if want := recs[0].AllCoresMBps / recs[0].OneCoreMBps; recs[0].Scaling != want {
		t.Fatalf("encode scaling = %g, want %g", recs[0].Scaling, want)
	}

	// Missing or zero datapoints must fail the CI assertion.
	if err := checkThroughput(throughputRecords(gb[:2])); err == nil {
		t.Fatal("want error with decode datapoints missing")
	}
	gb[2].MBPerSec = 0
	if err := checkThroughput(throughputRecords(gb)); err == nil {
		t.Fatal("want error with zero 1-core decode MB/s")
	}
}

func TestCheckScaling(t *testing.T) {
	gb := []GoBenchResult{
		{Name: "BenchmarkChunkedEncode1Core", MBPerSec: 100},
		{Name: "BenchmarkChunkedEncodeAllCores", Procs: 4, MBPerSec: 320},
		{Name: "BenchmarkChunkedDecode1Core", MBPerSec: 200},
		{Name: "BenchmarkChunkedDecodeAllCores", Procs: 4, MBPerSec: 500},
	}
	recs := throughputRecords(gb)
	if recs[0].ScalingEfficiency <= 0 || recs[0].Cores <= 0 {
		t.Fatalf("encode record missing scaling efficiency: %+v", recs[0])
	}
	if got, want := recs[0].ScalingEfficiency, recs[0].Scaling/float64(recs[0].Cores); got != want {
		t.Fatalf("encode efficiency = %g, want %g", got, want)
	}
	// Decode scales 2.5x, encode 3.2x: a floor of 2.4 passes, 2.6 trips
	// on decode.
	if err := checkScaling(recs, 2.4); err != nil {
		t.Fatal(err)
	}
	if err := checkScaling(recs, 2.6); err == nil {
		t.Fatal("want error with decode scaling 2.5 below floor 2.6")
	}
	if err := checkScaling(nil, 1.0); err == nil {
		t.Fatal("want error with no throughput datapoints")
	}
	// A missing op must fail, not silently pass on the ops that exist:
	// encode-only results once satisfied the check with decode scaling
	// unmeasured.
	if err := checkScaling(throughputRecords(gb[:2]), 2.4); err == nil {
		t.Fatal("want error with decode datapoints missing")
	}
	if err := checkScaling(throughputRecords(gb[2:]), 2.4); err == nil {
		t.Fatal("want error with encode datapoints missing")
	}
}

// TestScalingUnmeasuredOnOneCore covers both sides of the core-count
// rule: go-bench output from a GOMAXPROCS=1 run (no "-N" suffix) yields
// records marked unmeasured with no scaling figures, which
// -require-throughput accepts and -require-scaling rejects with an error
// naming the core count; the same output at GOMAXPROCS=2 yields measured
// records that pass a floor their ratios meet.
func TestScalingUnmeasuredOnOneCore(t *testing.T) {
	const oneCore = `BenchmarkChunkedEncode1Core     3  11481571 ns/op  100.00 MB/s
BenchmarkChunkedEncodeAllCores  3  11481571 ns/op  103.00 MB/s
BenchmarkChunkedDecode1Core     3  11481571 ns/op  300.00 MB/s
BenchmarkChunkedDecodeAllCores  3  11481571 ns/op  296.00 MB/s
`
	gb, err := parseGoBench(strings.NewReader(oneCore))
	if err != nil {
		t.Fatal(err)
	}
	recs := throughputRecords(gb)
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	for _, r := range recs {
		if !r.ScalingUnmeasured || r.Cores != 1 || r.Scaling != 0 || r.ScalingEfficiency != 0 {
			t.Fatalf("one-core record not marked unmeasured: %+v", r)
		}
	}
	blob, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if js := string(blob); !strings.Contains(js, `"scaling_unmeasured":true`) || strings.Contains(js, `"scaling":`) {
		t.Fatalf("one-core record JSON = %s", js)
	}
	if err := checkThroughput(recs); err != nil {
		t.Fatalf("throughput datapoints are present on one core: %v", err)
	}
	err = checkScaling(recs, 1.0)
	if err == nil || !strings.Contains(err.Error(), "1 core") {
		t.Fatalf("checkScaling on one core: err %v, want an error naming the core count", err)
	}

	twoCores := strings.ReplaceAll(oneCore, "AllCores ", "AllCores-2 ")
	gb, err = parseGoBench(strings.NewReader(twoCores))
	if err != nil {
		t.Fatal(err)
	}
	recs = throughputRecords(gb)
	for _, r := range recs {
		if r.ScalingUnmeasured || r.Cores != 2 || !(r.Scaling > 0) || r.ScalingEfficiency != r.Scaling/2 {
			t.Fatalf("two-core record: %+v", r)
		}
	}
	if err := checkScaling(recs, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := checkScaling(recs, 1.0); err == nil {
		t.Fatal("want error with decode scaling 0.99 below floor 1.0")
	}
}
