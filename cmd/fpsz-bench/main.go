// Command fpsz-bench is the unified benchmark and experiment tool: the
// paper's tables and figures, machine-readable performance records, and
// the fixed-ratio accuracy sweep all live behind one binary with
// subcommands.
//
// Usage:
//
//	fpsz-bench experiments -experiment all            # paper tables/figures
//	fpsz-bench experiments -experiment table2 -csv t2.csv
//	fpsz-bench gobench -in bench.out -out bench.json  # parse `go test -bench`
//	fpsz-bench chunk -dims 256x384x384 -psnr 80       # chunked-encoder record
//	fpsz-bench ratio -dims 64x96x96 -ratios 8,16,32   # fixed-ratio records
//	fpsz-bench region -dims 64x96x96 -roipsnr 80      # ROI-PSNR vs background-ratio
//	fpsz-bench suite -out BENCH_pr5.json [-gobench bench.out]
//
// The suite subcommand runs the chunked-encoder benchmark and the
// fixed-ratio sweep (optionally folding in parsed `go test -bench`
// output) and emits one combined JSON record — the per-PR perf artifact
// CI uploads.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	sub := "help"
	if len(args) > 0 {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "experiments":
		err = experimentsMain(args)
	case "gobench":
		err = gobenchMain(args)
	case "chunk":
		err = chunkMain(args)
	case "ratio":
		err = ratioMain(args)
	case "region":
		err = regionMain(args)
	case "serve":
		err = serveMain(args)
	case "mkfield":
		err = mkfieldMain(args)
	case "suite":
		err = suiteMain(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fpsz-bench: unknown subcommand %q\n\n", sub)
		usage()
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fpsz-bench experiments -experiment <name> [-csv <path>] [-fields] [-workers N] [dims flags]
  fpsz-bench gobench     [-in <bench.out>] [-out <json>]
  fpsz-bench chunk       [-dims HxWxD] [-psnr dB] [-chunkpoints N] [-workers N] [-out <json>]
  fpsz-bench ratio       [-dims HxWxD] [-ratios R,R,...] [-codecs sz,otc] [-workers N] [-out <json>]
  fpsz-bench region      [-dims HxWxD] [-roipsnr dB] [-bgratios R,R,...] [-workers N] [-out <json>]
  fpsz-bench serve       [-dims HxWxD] [-fields N] [-readers N] [-requests N] [-zipf s] [-out <json>]
  fpsz-bench mkfield     -out <field.sdf> [-dims HxWxD] [-name <field>]
  fpsz-bench suite       [-out <json>] [-gobench <bench.out>] [-serve] [chunk/ratio/region/serve flags]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpsz-bench:", err)
	os.Exit(1)
}

// parseDims parses "AxBxC" into dimensions of the required rank.
func parseDims(s string, wantRank int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != wantRank {
		return nil, fmt.Errorf("dims %q: want %d dimensions", s, wantRank)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("dims %q: bad dimension %q", s, p)
		}
		dims[i] = v
	}
	return dims, nil
}

// writeJSON marshals blob-ready bytes to a path, "-" meaning stdout.
func writeJSON(path string, blob []byte) error {
	blob = append(blob, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
