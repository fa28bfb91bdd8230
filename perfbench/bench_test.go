package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
	}{
		{0, 0}, {1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		s := summarize(xs)
		if s.N != c.n {
			t.Errorf("n=%d: N = %d", c.n, s.N)
		}
		if c.n == 0 {
			continue
		}
		if s.TailPct != c.wantPct {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, s.TailPct, c.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want >= 10", c.n, s.TailPct, s.Tail, beyond)
		}
		if want := math.Ceil(float64(c.n) / 2); s.P50 != want {
			t.Errorf("n=%d: p50 = %g, want %g", c.n, s.P50, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 10}, {26, 20}, {50, 20}, {75, 30}, {99, 40}, {100, 40}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	if tl.correct() {
		t.Error("a tally with nothing attempted must not be correct")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g == 0 && i%10 == 0 {
					tl.fail("op %d", i)
				} else {
					tl.ok()
				}
			}
		}(g)
	}
	wg.Wait()
	a, f := tl.counts()
	if a != 400 || f != 10 {
		t.Errorf("attempted %d failed %d, want 400 and 10", a, f)
	}
	if tl.correct() {
		t.Error("a tally with failures must not be correct")
	}
	if len(tl.first) != 8 {
		t.Errorf("kept %d failure messages, want the first 8", len(tl.first))
	}
	var clean tally
	clean.ok()
	if !clean.correct() {
		t.Error("one passing operation should be correct")
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms}, // overlaps a by 10ms
		{name: "a", parent: 0, start: 80 * ms, end: 90 * ms},
		{name: "leaf", parent: 1, start: 15 * ms, end: 20 * ms},
		{name: "open", parent: 0, start: 95 * ms, end: -1}, // never closed: ignored
	}
	got := map[string]spanStat{}
	for _, s := range summarizeSpans(spans) {
		got[s.Name] = s
	}
	approx := func(name string, have, want float64) {
		t.Helper()
		if math.Abs(have-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, have, want)
		}
	}
	root := got["root"]
	approx("root total", root.TotalS, 0.100)
	// Children cover [10,60) and [80,90): 60ms of union, 70ms of sum.
	approx("root self", root.SelfS, 0.040)
	approx("root child", root.ChildS, 0.070)
	approx("root coverage", root.Coverage, 0.7)
	a := got["a"]
	if a.Count != 2 || a.Parent != "root" {
		t.Errorf("a: count %d parent %q", a.Count, a.Parent)
	}
	approx("a total", a.TotalS, 0.040)
	approx("a self", a.SelfS, 0.035)
	approx("a coverage", a.Coverage, 0.005/0.040)
	approx("leaf self", got["leaf"].SelfS, 0.005)
	approx("leaf coverage", got["leaf"].Coverage, 0)
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span must not be summarized")
	}
	approx("spanTotal", spanTotal(summarizeSpans(spans), "b"), 0.030)

	// The same name under two parents is two rows; spanTotal sums both.
	spans = append(spans, span{name: "b", parent: 1, start: 20 * ms, end: 25 * ms})
	stats := summarizeSpans(spans)
	rows := 0
	for _, s := range stats {
		if s.Name == "b" {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("span b under two parents summarized in %d rows, want 2", rows)
	}
	approx("spanTotal over parents", spanTotal(stats, "b"), 0.035)
}

func TestStealCorrection(t *testing.T) {
	a, b := cpuStat{steal: 100, total: 1000}, cpuStat{steal: 350, total: 2000}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("steal share %g, want 0.25", got)
	}
	if got := stealShare(b, a); got != 0 {
		t.Errorf("steal share of a backwards interval %g, want 0", got)
	}
	if got := runShare(0.25); got != 0.75 {
		t.Errorf("run share %g, want 0.75", got)
	}
	if got := runShare(1); got != 0.1 {
		t.Errorf("run share of a fully stolen interval %g, want the 0.1 floor", got)
	}
	if st := readCPUStat(); st.total > 0 && st.steal > st.total {
		t.Errorf("/proc/stat steal %d exceeds total %d", st.steal, st.total)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	if id != -1 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer should record nothing")
	}
}

func TestRouteHistQuantile(t *testing.T) {
	prev := routeHist{le: []float64{0.001, 0.01, math.Inf(1)}, cum: []float64{5, 5, 5}}
	cur := routeHist{le: []float64{0.001, 0.01, math.Inf(1)}, cum: []float64{15, 25, 25}}
	h := cur.sub(prev) // 10 in (0,1ms], 10 in (1ms,10ms]
	if got := h.quantile(0.5); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p50 = %g, want 0.001", got)
	}
	if got := h.quantile(0.75); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p75 = %g, want 0.0055", got)
	}
	if got := (routeHist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g", got)
	}
}

// TestBenchmarkJSONMatchesEmittedMetrics pins BENCHMARK.json to the
// metric tables the command prints from.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(got), len(defs))
		}
		emitted := map[string]string{}
		for _, d := range defs {
			emitted[d.name] = d.unit
		}
		for _, m := range got {
			unit, ok := emitted[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is in BENCHMARK.json but never emitted", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: %s unit %q in BENCHMARK.json, %q emitted", kind, m.Name, m.Unit, unit)
			}
			if !validName(m.Name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", kind, m.Name)
			}
			if kind == "per_layer" && m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s has direction %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' || r == '-'
		if !ok {
			return false
		}
	}
	return true
}
