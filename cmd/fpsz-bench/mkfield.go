package main

import (
	"flag"
	"fmt"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/fieldio"
)

// mkfieldMain writes a deterministic synthetic field as an SDF1 file —
// the input generator for smoke tests and serve demos, so they need no
// external datasets.
func mkfieldMain(args []string) error {
	fs := flag.NewFlagSet("mkfield", flag.ExitOnError)
	var (
		dimsArg = fs.String("dims", "48x40x32", "field grid")
		name    = fs.String("name", "synth", "field name recorded in the file")
		out     = fs.String("out", "", "output SDF1 path (required)")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("mkfield: -out is required")
	}
	dims, err := parseDims(*dimsArg, 3)
	if err != nil {
		return err
	}
	f := fixedpsnr.NewField(*name, fixedpsnr.Float64, dims...)
	datagen.ChunkBench(f.Data, 0, dims)
	if err := fieldio.WriteFile(*out, f); err != nil {
		return err
	}
	fmt.Printf("mkfield: %s %v -> %s\n", *name, dims, *out)
	return nil
}
