package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's metric contract: BENCHMARK.json lists exactly these
// names (TestBenchmarkJSONMatchesEmittedMetrics pins the pairing), every
// end-to-end metric is printed by every untraced run, and every per-layer
// metric by every traced run.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the compressor sees. Each one is
// defined on every workload; perfbench/README.md gives the per-workload
// meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"encode_mbps", "MB/s"},
	{"decode_mbps", "MB/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ratio", "x"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"fixedpsnr.encode_s", "s"},
	{"fixedpsnr.decode_s", "s"},
	{"fixedpsnr.alloc_mb_per_encode", "MB"},
	{"fixedpsnr.gc_cycles", "count"},
	{"plan.passes_per_encode", "count"},
	{"plan.in_band_frac", "fraction"},
	{"plan.pass_s", "s"},
	{"plan.psnr_err_db", "dB"},
	{"plan.ratio_err_pct", "%"},
	{"plan.target_miss_frac", "fraction"},
	{"codec.chunks", "count"},
	{"codec.chunk_encode_s", "s"},
	{"codec.chunk_decode_s", "s"},
	{"codec.assemble_s", "s"},
	{"codec.region_copy_s", "s"},
	{"codec.payload_bytes", "bytes"},
	{"kernels.predict_quantize_s", "s"},
	{"kernels.reconstruct_s", "s"},
	{"kernels.minmax_s", "s"},
	{"kernels.count_s", "s"},
	{"kernels.points", "count"},
	{"kernels.bytes_computed", "bytes"},
	{"huffman.encode_s", "s"},
	{"huffman.decode_s", "s"},
	{"huffman.syms", "count"},
	{"huffman.bits_per_sym", "bits"},
	{"deflate.encode_s", "s"},
	{"deflate.in_bytes", "bytes"},
	{"deflate.out_bytes", "bytes"},
	{"flate.inflate_s", "s"},
	{"otc.chunk_encode_s", "s"},
	{"transform.forward_s", "s"},
	{"transform.inverse_s", "s"},
	{"parallel.scaling", "x"},
	{"parallel.busy_frac", "fraction"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.cache_misses", "count"},
	{"serve.cache_coalesced", "count"},
	{"serve.cache_evictions", "count"},
	{"serve.shed", "count"},
	{"serve.route_get_p50_ms", "ms"},
	{"serve.payload_read_s", "s"},
	{"serve.catalog_put_s", "s"},
	{"serve.put_p50_ms", "ms"},
	{"fieldio.write_s", "s"},
	{"fieldio.read_s", "s"},
	{"replay.encode_coverage", "fraction"},
	{"replay.decode_coverage", "fraction"},
	{"trace.op_samples", "count"},
	{"trace.tail_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.steal_pct", "%"},
}

// tailLadder is the set of tail percentiles a timing may report, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// latencySummary is a timing distribution reduced to its median and the
// highest ladder percentile that has at least ten samples beyond it.
type latencySummary struct {
	N       int
	P50     float64
	TailPct float64 // the percentile Tail reports
	Tail    float64
}

// summarize reduces samples (any unit) to a latencySummary. A percentile
// p qualifies for the tail when at least ten samples lie above its
// nearest rank; with fewer than twenty samples no percentile qualifies
// and the tail falls back to the median.
func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := latencySummary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 50)
	out.TailPct, out.Tail = 50, out.P50
	for _, p := range tailLadder {
		if len(s)-rank(len(s), p) >= 10 {
			out.TailPct, out.Tail = p, percentile(s, p)
			break
		}
	}
	return out
}

// rank is the 1-based nearest rank of percentile p among n samples,
// ⌈p·n/100⌉ clamped to [1, n], computed in integer per-mille so that
// p·n products like 90·100 land exactly.
func rank(n int, p float64) int {
	pm := int(math.Round(p * 10))
	return min(max((pm*n+999)/1000, 1), n)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// median of unsorted values (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts operations attempted and failed. Every correctness check
// the workloads make reports through it, so the run's `failed` count,
// its `correct` flag and its exit status agree. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string // the first few failure messages, for the log
}

// ok records one attempted operation that passed its checks.
func (t *tally) ok() { t.record(nil) }

// fail records one attempted operation that failed.
func (t *tally) fail(format string, a ...any) { t.record(fmt.Errorf(format, a...)) }

// record counts one attempted operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 8 {
			t.first = append(t.first, err.Error())
		}
	}
}

// counts snapshots attempted and failed.
func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// correct reports whether at least one operation ran and none failed.
func (t *tally) correct() bool {
	a, f := t.counts()
	return a > 0 && f == 0
}
