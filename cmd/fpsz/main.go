// Command fpsz is the compressor CLI: it compresses and decompresses
// field files (the SDF1 format of internal/fieldio) with any of the four
// error-control modes, and inspects compressed streams.
//
// Usage:
//
//	fpsz compress   -in field.sdf -out field.fpsz -mode psnr -psnr 80
//	fpsz compress   -in field.sdf -out field.fpsz -ratio 16
//	fpsz compress   -in field.sdf -out field.fpsz -mode abs -eb 1e-3
//	fpsz compress   -in field.sdf -out field.fpsz -mode rel -eb 1e-4
//	fpsz compress   -in field.sdf -out field.fpsz -mode pwrel -eb 1e-3
//	fpsz decompress -in field.fpsz -out recon.sdf
//	fpsz inspect    -in field.fpsz
//	fpsz verify     -in field.fpsz -orig field.sdf
//
// The verify subcommand decompresses and reports distortion metrics
// against the original.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/fieldio"
	"fixedpsnr/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Compression runs under a signal-cancelled context: the first
	// SIGINT/SIGTERM aborts the in-flight work within one slab per
	// worker. Once that happens, unregister immediately so a second
	// signal hits the restored default handler and force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	var err error
	switch os.Args[1] {
	case "compress":
		err = compress(ctx, os.Args[2:])
	case "decompress":
		err = decompress(os.Args[2:])
	case "inspect", "info":
		err = inspect(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "archive":
		err = archive(ctx, os.Args[2:])
	case "list":
		err = list(os.Args[2:])
	case "extract":
		err = extract(os.Args[2:])
	case "serve":
		err = serveCmd(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fpsz: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "fpsz: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpsz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fpsz compress   -in <field.sdf> -out <stream.fpsz> -mode abs|rel|psnr|ratio|pwrel [-eb <bound>] [-psnr <dB>] [-ratio <R>] [flags]
                  [-roi "off:ext[,off:ext...]=psnr:<dB>|ratio:<R>"] (repeatable: per-region quality targets)
  fpsz decompress -in <stream.fpsz> -out <field.sdf>
  fpsz inspect    -in <stream.fpsz>
  fpsz verify     -in <stream.fpsz> -orig <field.sdf>
  fpsz archive    -dir <dir-of-sdf> -out <snapshot.fpsa> [-psnr <dB> | -ratio <R>]
  fpsz list       -in <snapshot.fpsa>
  fpsz extract    -in <snapshot.fpsa> -field <name> -out <field.sdf> [-region off:ext,...]
  fpsz serve      [-addr :8080] [-root archives] [-cache-mb 256] [flags]  serve an archive catalog over HTTP
  fpsz info       alias of inspect; -chunks prints the per-chunk index (and region groups)`)
	os.Exit(2)
}

// roiFlags collects repeated -roi region-target specs. Each value reads
// "off:ext[,off:ext...]=psnr:<dB>" or "...=ratio:<R>" — the region
// syntax of extract -region, an equals sign, then the region's quality
// target.
type roiFlags []fixedpsnr.RegionTarget

func (r *roiFlags) String() string { return fmt.Sprintf("%d region targets", len(*r)) }

func (r *roiFlags) Set(s string) error {
	rt, err := serve.ParseROISpec(s)
	if err != nil {
		return err
	}
	*r = append(*r, rt)
	return nil
}

func compress(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	var (
		in         = fs.String("in", "", "input field file (SDF1)")
		out        = fs.String("out", "", "output compressed stream")
		mode       = fs.String("mode", "psnr", "quality target: abs, rel, psnr, ratio, pwrel")
		eb         = fs.Float64("eb", 0, "error bound (abs: absolute; rel/pwrel: relative)")
		psnr       = fs.Float64("psnr", 80, "target PSNR in dB (psnr mode)")
		ratio      = fs.Float64("ratio", 0, "target compression ratio (> 1; selects ratio mode)")
		compressor = fs.String("compressor", "sz", "pipeline: sz, transform, or wavelet")
		capacity   = fs.Int("capacity", 0, "quantization intervals (0 = 65536)")
		autoCap    = fs.Bool("autocap", false, "estimate capacity from the data")
		workers    = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		chunkPts   = fs.Int("chunkpoints", 0, "target chunk size in points for random-access streams (0 = default tiling)")
	)
	var rois roiFlags
	fs.Var(&rois, "roi", `region quality target "off:ext[,off:ext...]=psnr:<dB>|ratio:<R>" (repeatable)`)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -in and -out are required")
	}

	f, err := fieldio.ReadFile(*in)
	if err != nil {
		return err
	}

	opt := fixedpsnr.Options{
		Capacity:      *capacity,
		AutoCapacity:  *autoCap,
		Workers:       *workers,
		ChunkPoints:   *chunkPts,
		RegionTargets: rois,
	}
	if opt.Compressor, err = serve.ParseCompressor(*compressor); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if *ratio > 0 {
		// -ratio is a shorthand that selects the fixed-ratio target.
		*mode = fixedpsnr.ModeRatio.String()
	}
	if err := serve.SetMode(&opt, *mode, *eb, *psnr, *ratio); err != nil {
		return fmt.Errorf("compress: %w", err)
	}

	enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(opt))
	if err != nil {
		return err
	}
	blob, res, err := enc.Encode(ctx, f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %v %s\n", f.Name, f.Dims, f.Precision)
	fmt.Printf("  mode=%v compressor=%v ebAbs=%.6g ebRel=%.6g\n", opt.Mode, opt.Compressor, res.EbAbs, res.EbRel)
	fmt.Printf("  %d -> %d bytes  ratio=%.2f  bitrate=%.3f bits/value  unpredictable=%d\n",
		res.OriginalBytes, res.CompressedBytes, res.Ratio, res.BitRate, res.Unpredictable)
	if opt.Mode == fixedpsnr.ModePSNR {
		fmt.Printf("  target PSNR=%.2f dB (estimated actual: %.2f dB)\n", *psnr, res.EstimatedPSNR)
	}
	if opt.Mode == fixedpsnr.ModeRatio {
		fmt.Printf("  target ratio=%.2f achieved=%.2f (%+.1f%%) in %d pass(es)\n",
			res.TargetRatio, res.Ratio, 100*(res.Ratio-res.TargetRatio)/res.TargetRatio, res.Passes)
	}
	for _, rg := range res.Regions {
		switch rg.Mode {
		case fixedpsnr.ModePSNR:
			fmt.Printf("  region %-12s psnr target=%.4g dB achieved=%.2f dB (eb=%.4g, %d chunk(s), %d pass(es))\n",
				rg.Name, rg.TargetPSNR, rg.AchievedPSNR, rg.EbAbs, rg.Chunks, rg.Passes)
		case fixedpsnr.ModeRatio:
			fmt.Printf("  region %-12s ratio target=%.4g achieved=%.2f (eb=%.4g, %d chunk(s), %d pass(es))\n",
				rg.Name, rg.TargetRatio, rg.AchievedRatio, rg.EbAbs, rg.Chunks, rg.Passes)
		default:
			fmt.Printf("  region %-12s mode=%v eb=%.4g (%d chunk(s), %d pass(es))\n",
				rg.Name, rg.Mode, rg.EbAbs, rg.Chunks, rg.Passes)
		}
	}
	return nil
}

func decompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	var (
		in  = fs.String("in", "", "input compressed stream")
		out = fs.String("out", "", "output field file (SDF1)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out are required")
	}
	src, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	f, info, err := fixedpsnr.NewDecoder().DecodeFrom(context.Background(), bufio.NewReader(src))
	if err != nil {
		return err
	}
	if err := fieldio.WriteFile(*out, f); err != nil {
		return err
	}
	fmt.Printf("%s: %v %s (codec %v) -> %s\n", f.Name, f.Dims, f.Precision, info.Codec, *out)
	return nil
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "compressed stream")
	chunksFlag := fs.Bool("chunks", false, "also print the per-chunk index (rows, offsets, stats)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	h, err := fixedpsnr.Inspect(blob)
	if err != nil {
		return err
	}
	fmt.Printf("name:        %s\n", h.Name)
	fmt.Printf("version:     %d\n", h.Version)
	fmt.Printf("codec:       %v\n", h.Codec)
	fmt.Printf("mode:        %v\n", h.Mode)
	fmt.Printf("precision:   %v\n", h.Precision)
	fmt.Printf("dims:        %v (%d points)\n", h.Dims, h.NPoints())
	fmt.Printf("ebAbs:       %g\n", h.EbAbs)
	fmt.Printf("target PSNR: %g dB\n", h.TargetPSNR)
	fmt.Printf("value range: %g\n", h.ValueRange)
	fmt.Printf("capacity:    %d\n", h.Capacity)
	fmt.Printf("chunks:      %d\n", len(h.Chunks))
	if len(h.Groups) > 0 {
		fmt.Printf("groups:      %d\n", len(h.Groups))
		for gi, g := range h.Groups {
			target := ""
			switch g.Mode {
			case codec.ModePSNR:
				target = fmt.Sprintf("psnr %.4g dB", g.TargetPSNR)
			case codec.ModeRatio:
				target = fmt.Sprintf("ratio %.4g:1", g.TargetRatio)
			default:
				target = g.Mode.String()
			}
			fmt.Printf("  group %d %-14s %-14s %d chunk(s)\n", gi, g.Name, target, len(h.GroupChunks(gi)))
		}
	}
	fmt.Printf("stream size: %d bytes\n", len(blob))
	if *chunksFlag {
		grouped := len(h.Groups) > 0
		if grouped {
			fmt.Printf("%5s %10s %10s %10s %10s %12s %12s  %-12s %s\n",
				"chunk", "rows", "offset", "bytes", "ebAbs", "mse", "range", "group", "target")
		} else {
			fmt.Printf("%5s %10s %10s %10s %10s %12s %12s\n",
				"chunk", "rows", "offset", "bytes", "ebAbs", "mse", "range")
		}
		for ci, c := range h.Chunks {
			eb := c.EbAbs
			if eb == 0 {
				eb = h.EbAbs
			}
			fmt.Printf("%5d %4d+%-5d %10d %10d %10.4g %12.6g %12.6g",
				ci, c.RowStart, c.Rows, c.Off, c.Len, eb, c.MSE, c.Max-c.Min)
			if grouped {
				g := h.Groups[c.Group]
				target := g.Mode.String()
				switch g.Mode {
				case codec.ModePSNR:
					target = fmt.Sprintf("psnr %.4g", g.TargetPSNR)
				case codec.ModeRatio:
					target = fmt.Sprintf("ratio %.4g", g.TargetRatio)
				}
				fmt.Printf("  %-12s %s", g.Name, target)
			}
			fmt.Println()
		}
	}
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		in   = fs.String("in", "", "compressed stream")
		orig = fs.String("orig", "", "original field file (SDF1)")
	)
	fs.Parse(args)
	if *in == "" || *orig == "" {
		return fmt.Errorf("verify: -in and -orig are required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	recon, h, err := fixedpsnr.Decompress(blob)
	if err != nil {
		return err
	}
	f, err := fieldio.ReadFile(*orig)
	if err != nil {
		return err
	}
	if !f.SameShape(recon) {
		return fmt.Errorf("verify: shape mismatch %v vs %v", f.Dims, recon.Dims)
	}
	d := fixedpsnr.CompareFields(f, recon)
	fmt.Printf("%s (codec %v)\n", h.Name, h.Codec)
	fmt.Printf("  PSNR:    %.4f dB", d.PSNR)
	if h.Mode == codec.ModePSNR {
		fmt.Printf("  (target %.4g dB)", h.TargetPSNR)
	}
	fmt.Println()
	fmt.Printf("  MSE:     %.6g\n", d.MSE)
	fmt.Printf("  NRMSE:   %.6g\n", d.NRMSE)
	fmt.Printf("  max err: %.6g\n", d.MaxErr)
	return nil
}

// archive compresses every .sdf file in a directory into one archive at a
// fixed PSNR — the batch snapshot workflow of the paper's introduction.
// Fields stream through one at a time: each file is read, compressed, and
// appended to the output archive before the next is loaded, so snapshots
// larger than memory archive fine.
func archive(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "directory of .sdf field files")
		out      = fs.String("out", "", "output archive (.fpsa)")
		psnr     = fs.Float64("psnr", 80, "target PSNR in dB")
		ratio    = fs.Float64("ratio", 0, "target compression ratio per field (> 1; overrides -psnr)")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		chunkPts = fs.Int("chunkpoints", 0, "target chunk size in points for random-access streams (0 = default tiling)")
	)
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return fmt.Errorf("archive: -dir and -out are required")
	}
	paths, err := filepath.Glob(filepath.Join(*dir, "*.sdf"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("archive: no .sdf files in %s", *dir)
	}
	sort.Strings(paths)

	// Stream into a temp file, sync it and rename it on success, so
	// neither a failed run nor a crash after the rename leaves a
	// truncated archive at the destination.
	tmp := *out + ".tmp"
	outFile, err := os.Create(tmp)
	if err != nil {
		return err
	}
	done := false
	defer func() {
		if !done {
			outFile.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(outFile, 1<<20)
	aw, err := fixedpsnr.NewArchiveWriter(bw)
	if err != nil {
		return err
	}
	// One Encoder session serves the whole snapshot: scratch buffers
	// are reused field to field and Ctrl-C aborts the in-flight field.
	// With -ratio every field is steered to the same compression ratio
	// (so the whole snapshot hits it too); otherwise every field gets
	// its own Eq. 8 bound for the target PSNR.
	quality := []fixedpsnr.Option{
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(*psnr),
	}
	if *ratio > 0 {
		quality = []fixedpsnr.Option{
			fixedpsnr.WithMode(fixedpsnr.ModeRatio),
			fixedpsnr.WithTargetRatio(*ratio),
		}
	}
	enc, err := fixedpsnr.NewEncoder(append(quality,
		fixedpsnr.WithWorkers(*workers),
		fixedpsnr.WithChunkPoints(*chunkPts),
	)...)
	if err != nil {
		return err
	}
	var inBytes int
	for _, p := range paths {
		f, err := fieldio.ReadFile(p)
		if err != nil {
			return fmt.Errorf("archive: %s: %w", p, err)
		}
		res, err := aw.WriteFieldEncoder(ctx, enc, f)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return err
			}
			return fmt.Errorf("archive: %s: %w", p, err)
		}
		inBytes += res.OriginalBytes
	}
	if err := aw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	st, err := outFile.Stat()
	if err != nil {
		return err
	}
	if err := outFile.Sync(); err != nil {
		return err
	}
	if err := outFile.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, *out); err != nil {
		return err
	}
	done = true
	outBytes := st.Size()
	achieved := float64(inBytes) / float64(outBytes)
	if *ratio > 0 {
		fmt.Printf("archived %d fields at target ratio %g: %.1f MB -> %.1f MB (achieved %.1fx, %+.1f%%)\n",
			aw.Count(), *ratio, float64(inBytes)/(1<<20), float64(outBytes)/(1<<20),
			achieved, 100*(achieved-*ratio)/(*ratio))
		return nil
	}
	fmt.Printf("archived %d fields at %g dB: %.1f MB -> %.1f MB (%.1fx)\n",
		aw.Count(), *psnr, float64(inBytes)/(1<<20), float64(outBytes)/(1<<20),
		achieved)
	return nil
}

// list prints the archive index. Only the tail index and the per-entry
// headers are read; payloads stay on disk.
func list(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	in := fs.String("in", "", "archive file (.fpsa)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("list: -in is required")
	}
	ar, err := fixedpsnr.OpenArchiveFile(*in)
	if err != nil {
		return err
	}
	defer ar.Close()
	for i := 0; i < ar.Len(); i++ {
		h, err := ar.Info(i)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %v %s codec=%v mode=%v target=%g dB\n",
			h.Name, h.Dims, h.Precision, h.Codec, h.Mode, h.TargetPSNR)
	}
	fmt.Printf("%d fields (archive v%d)\n", ar.Len(), ar.Version())
	return nil
}

// extract pulls one field — or, with -region, one sub-block of it — out
// of an archive. On a v2 archive this reads only the tail index and the
// requested entry; with -region on a chunked stream, only the entry's
// header and the chunks the region intersects are read.
func extract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "archive file (.fpsa)")
		fieldArg  = fs.String("field", "", "field name")
		out       = fs.String("out", "", "output field file (.sdf)")
		regionArg = fs.String("region", "", `sub-block "off:ext[,off:ext...]" per dimension, e.g. 10:4,0:384,0:384`)
	)
	fs.Parse(args)
	if *in == "" || *fieldArg == "" || *out == "" {
		return fmt.Errorf("extract: -in, -field, and -out are required")
	}
	ar, err := fixedpsnr.OpenArchiveFile(*in)
	if err != nil {
		return err
	}
	defer ar.Close()
	var f *fixedpsnr.Field
	if *regionArg != "" {
		off, ext, err := serve.ParseRegionSpec(*regionArg)
		if err != nil {
			return fmt.Errorf("extract: %w", err)
		}
		f, _, err = ar.ExtractRegion(*fieldArg, off, ext)
		if err != nil {
			return err
		}
	} else {
		f, _, err = ar.Extract(*fieldArg)
		if err != nil {
			return err
		}
	}
	if err := fieldio.WriteFile(*out, f); err != nil {
		return err
	}
	fmt.Printf("extracted %s %v -> %s\n", f.Name, f.Dims, *out)
	return nil
}

// serveCmd runs the archive catalog daemon in-process — the same engine
// as the standalone fpsz-serve binary. It serves until the first
// SIGINT/SIGTERM, then drains gracefully.
func serveCmd(ctx context.Context, args []string) error {
	cfg, err := serve.ParseFlags("fpsz serve", args, os.Stderr)
	if err != nil {
		return err
	}
	return serve.Run(ctx, cfg, os.Stderr)
}
