// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring time and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd); with
// --trace 1 the run is repeated with spans recorded around every call the
// benchmark makes into a layer, and the metrics are the per-layer set
// (perLayer). Inputs are synthesized from --seed before any timer starts.
// Every output is checked; a failed check is counted in "failed", clears
// "correct" and makes the command exit 1.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package with a build cache under .bench_build/:
//
//	bash perfbench/run.sh --workload psnr-sweep --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fixedpsnr/internal/kernels"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, and only the last build is kept.
const setupReps = 3

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch directory inside the checkout, removed at exit
	nproc    int
}

// measureFor is the measuring time of one phase: the whole run untraced,
// or each of the two halves (untraced, then traced) of a traced run.
func (c config) measureFor() time.Duration {
	d := c.seconds
	if c.trace {
		d /= 2
	}
	return time.Duration(d * float64(time.Second))
}

// report collects one run's results.
type report struct {
	tally tally
	e2e   map[string]float64
	layer map[string]float64
	spans []spanStat
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// workloads maps each --workload name to its runner.
var workloads = map[string]func(cfg config, rep *report) error{
	"psnr-sweep":  runPSNRSweep,
	"ratio-steer": runRatioSteer,
	"serve-mixed": runServeMixed,
}

func main() {
	cfg := config{nproc: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (psnr-sweep, ratio-steer, serve-mixed)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: salts every synthesized input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	cfg.workDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep := newReport()
	err := run(cfg, rep)
	os.RemoveAll(cfg.workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	rep.e2e["peak_rss_mb"] = peakRSSMiB()
	code, err := emit(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernels":    kernels.Active(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// emit prints the run's notes, environment and span table, writes the
// traced run's span summary under .bench_build/trace/, and prints the
// result object as the last stdout line. It returns the exit code.
func emit(cfg config, rep *report) (int, error) {
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !cfg.trace && !ok {
			return 2, fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 2, fmt.Errorf("%s measured %s = %v", cfg.workload, d.name, v)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	env := environment(cfg)
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))
	if cfg.trace {
		printSpans(rep.spans)
		if err := writeTrace(cfg, env, rep); err != nil {
			return 2, err
		}
	}
	attempted, failed := rep.tally.counts()
	for _, m := range rep.tally.first {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.tally.correct(),
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !rep.tally.correct() {
		return 1, nil
	}
	return 0, nil
}

// printSpans prints the span table: per span name, its parent, count,
// total and self time, and the coverage of its time by its children.
func printSpans(stats []spanStat) {
	s := append([]spanStat(nil), stats...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Parent < s[j].Parent })
	fmt.Printf("span %-28s %-22s %7s %10s %10s %8s\n", "name", "parent", "count", "total_s", "self_s", "coverage")
	for _, st := range s {
		fmt.Printf("span %-28s %-22s %7d %10.4f %10.4f %8.3f\n", st.Name, st.Parent, st.Count, st.TotalS, st.SelfS, st.Coverage)
	}
}

// writeTrace writes the traced run's environment, span summary and
// per-layer metrics as JSON under .bench_build/trace/.
func writeTrace(cfg config, env map[string]any, rep *report) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{
		"env":     env,
		"spans":   rep.spans,
		"metrics": rep.layer,
		"notes":   rep.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), blob, 0o644)
}

// timedSetup builds a workload's inputs setupReps times, releasing every
// build but the last, and returns the last build with the median build
// time in seconds, steal-corrected (runShare). The heap is collected before each build so one
// build's garbage does not bill the next.
func timedSetup[S any](build func() (S, error), release func(S)) (S, float64, error) {
	var cur S
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(cur)
		}
		runtime.GC()
		c0, t0 := readCPUStat(), time.Now()
		s, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, runShare(stealShare(c0, readCPUStat()))*time.Since(t0).Seconds())
		cur = s
	}
	return cur, median(times), nil
}

// loopFor calls rep until d has elapsed, at least once.
func loopFor(d time.Duration, rep func() error) error {
	t0 := time.Now()
	for {
		if err := rep(); err != nil {
			return err
		}
		if time.Since(t0) >= d {
			return nil
		}
	}
}

// overheadPct is the tracing overhead: the traced phase's mean primary
// operation time over the untraced phase's, minus one, in percent.
func overheadPct(untraced, traced float64) float64 {
	if !(untraced > 0) {
		return 0
	}
	return 100 * (traced/untraced - 1)
}
