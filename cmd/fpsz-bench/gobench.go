package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// GoBenchResult is one parsed `go test -bench` result line.
type GoBenchResult struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at: the name's "-N"
	// suffix, or 1 when it has none (go test omits the suffix at 1).
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// gobenchMain converts `go test -bench -benchmem` text output into a JSON
// benchmark record, so CI can emit machine-readable perf artifacts and
// the perf trajectory accumulates across PRs. Lines that are not
// benchmark results are ignored.
func gobenchMain(args []string) error {
	fs := flag.NewFlagSet("gobench", flag.ExitOnError)
	pf := registerProfileFlags(fs)
	in := fs.String("in", "-", "bench output file (default stdin)")
	out := fs.String("out", "-", "JSON output file (default stdout)")
	requireScale := fs.Float64("require-scaling", 0, "fail unless every chunked throughput datapoint's all-core/1-core scaling factor is at least this value (0 = no check)")
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	results, err := parseGoBenchFile(*in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}
	if *requireScale > 0 {
		if err := checkScaling(throughputRecords(results), *requireScale); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return writeJSON(*out, blob)
}

// parseGoBenchFile parses a bench output file ("-" = stdin).
func parseGoBenchFile(path string) ([]GoBenchResult, error) {
	src := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	return parseGoBench(src)
}

// parseGoBench extracts benchmark result lines of the form
//
//	BenchmarkName-8  100  11481571 ns/op  87.10 MB/s  7391472 B/op  59 allocs/op
//
// from mixed `go test` output.
func parseGoBench(r io.Reader) ([]GoBenchResult, error) {
	var out []GoBenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitGOMAXPROCS(fields[0])
		res := GoBenchResult{Name: name, Procs: procs, Iterations: iters}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen = true
			case "MB/s":
				res.MBPerSec = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		if seen {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// splitGOMAXPROCS splits the trailing "-N" procs suffix off a benchmark
// name. go test prints no suffix when GOMAXPROCS is 1, so a bare name
// ran on one core.
func splitGOMAXPROCS(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}
