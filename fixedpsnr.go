// Package fixedpsnr provides fixed-PSNR error-controlled lossy compression
// for 1-, 2-, and 3-dimensional scientific floating-point fields,
// reproducing "Fixed-PSNR Lossy Compression for Scientific Data"
// (Tao, Di, Liang, Chen, Cappello — IEEE CLUSTER 2018).
//
// The compression stack has four layers (top to bottom):
//
//   - this package — the public API: fields in, self-describing streams
//     and archives out;
//   - internal/plan — error-control planning: every mode is converted to
//     the absolute bound a codec runs with (Eq. 8 for fixed PSNR), plus
//     the calibrated refinement loop (chunk-aware: the global MSE is
//     aggregated from per-chunk MSEs and only stale chunks recompress);
//   - internal/codec — the codec registry and the shared chunked stream
//     container (per-chunk index with offsets and statistics, enabling
//     random-access region decodes and bounded-memory streaming);
//   - internal/sz and internal/otc — the registered pipelines: an
//     SZ-style prediction-based compressor (Lorenzo predictor,
//     error-controlled uniform quantization, Huffman, DEFLATE) and a
//     blockwise orthonormal-transform compressor (DCT or Haar) with the
//     same entropy back end.
//
// Five quality targets (error-control modes) are supported:
//
//   - ModeAbs   — absolute error bound (|x−x̃| ≤ eb for every point);
//   - ModeRel   — value-range-based relative bound (eb = rel·(max−min));
//   - ModePSNR  — the paper's contribution: a target PSNR is converted to
//     a relative bound in closed form (ebrel = √3·10^(−PSNR/20), Eq. 8)
//     and the compressor runs exactly once (Calibrated adds a
//     measured-MSE secant refinement for low targets);
//   - ModeRatio — FRaZ-style fixed compression ratio: the bound is
//     steered by a log–log secant over the measured rate curve until
//     original/compressed bytes lands within RatioTolerance of
//     TargetRatio (works on every pipeline — size needs no Theorem 1);
//   - ModePWRel — pointwise relative bound (|x−x̃| ≤ rel·|x|), via
//     log-domain compression (SZ family only).
//
// Quality can additionally vary by region: Options.RegionTargets steers
// sub-blocks of a field to their own PSNR or ratio targets (a region of
// interest held at 80 dB over a fixed-ratio background), with per-group
// outcomes in Result.Regions and the group table recorded in the stream
// (format v4).
//
// The primary API is the session pair Encoder/Decoder: reusable,
// concurrency-safe objects built with functional options that thread a
// context.Context through the pipelines (cancellation aborts within one
// chunk of work), reuse pooled scratch buffers across calls, and offer
// io.Writer/io.Reader streaming, batch compression, bounded-memory
// streaming encodes (EncodeFrom), and random-access region decodes
// (DecodeRegion) over the chunked container:
//
//	enc, err := fixedpsnr.NewEncoder(
//		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
//		fixedpsnr.WithTargetPSNR(80), // dB
//	)
//	stream, res, err := enc.Encode(ctx, f)
//	g, info, err := fixedpsnr.NewDecoder().Decode(ctx, stream)
//	d := fixedpsnr.CompareFields(f, g) // d.PSNR ≈ 80 dB
//
// One-shot quick start (a thin wrapper over the same core):
//
//	f := fixedpsnr.NewField("temperature", fixedpsnr.Float32, 100, 500, 500)
//	// ... fill f.Data ...
//	stream, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{
//		Mode:       fixedpsnr.ModePSNR,
//		TargetPSNR: 80, // dB
//	})
//	// ...
//	g, info, err := fixedpsnr.Decompress(stream)
package fixedpsnr

import (
	"context"
	"fmt"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
	"fixedpsnr/internal/field"
	_ "fixedpsnr/internal/otc" // register the orthogonal-transform codec
	"fixedpsnr/internal/plan"
	"fixedpsnr/internal/stats"
	_ "fixedpsnr/internal/sz" // register the prediction-based codec
)

// Field is the N-dimensional data container accepted by Compress.
type Field = field.Field

// Precision tags the storage precision of field values.
type Precision = field.Precision

// Precision values.
const (
	Float32 = field.Float32
	Float64 = field.Float64
)

// NewField allocates a zero-filled field (see field.New).
func NewField(name string, prec Precision, dims ...int) *Field {
	return field.New(name, prec, dims...)
}

// FieldFromData wraps an existing row-major slice as a field without
// copying.
func FieldFromData(name string, prec Precision, data []float64, dims ...int) (*Field, error) {
	return field.FromData(name, prec, data, dims...)
}

// Distortion reports reconstruction quality (MSE, NRMSE, PSNR, max error).
type Distortion = stats.Distortion

// CompareFields computes distortion metrics between an original and a
// reconstructed field. It panics if shapes differ.
func CompareFields(orig, recon *Field) Distortion {
	return stats.Compare(orig.Data, recon.Data)
}

// StreamInfo describes a compressed stream's header.
type StreamInfo = codec.Header

// ChunkInfo is one entry of a chunked stream's per-chunk index: the rows
// it covers, where its payload lives, and the statistics (exact MSE,
// value range) measured when it was compressed.
type ChunkInfo = codec.ChunkInfo

// Chunked-container sizing (see Options.ChunkPoints).
const (
	// MinChunkPoints is the smallest accepted ChunkPoints value.
	MinChunkPoints = codec.MinChunkPoints
	// DefaultChunkPoints is the chunk size EncodeFrom uses when
	// ChunkPoints is zero.
	DefaultChunkPoints = codec.DefaultChunkPoints
)

// MaxBlockSize is the largest accepted BlockSize (transform pipeline).
const MaxBlockSize = codec.MaxBlockSize

// Plan is the bound derivation produced by fixed-PSNR planning.
type Plan = core.Plan

// Mode selects the error-control strategy (see internal/plan). It is the
// mode byte stream headers record (StreamInfo.Mode), a uint8.
type Mode = plan.Mode

// Modes.
const (
	// ModeAbs bounds the absolute pointwise error.
	ModeAbs = plan.ModeAbs
	// ModeRel bounds the pointwise error relative to the value range.
	ModeRel = plan.ModeRel
	// ModePSNR fixes the overall PSNR of the reconstruction (the
	// paper's fixed-PSNR mode).
	ModePSNR = plan.ModePSNR
	// ModePWRel bounds the pointwise error relative to each value.
	ModePWRel = plan.ModePWRel
	// ModeRatio fixes the overall compression ratio (FRaZ-style): the
	// bound is steered until OriginalBytes/CompressedBytes lands within
	// RatioTolerance of TargetRatio.
	ModeRatio = plan.ModeRatio
)

// Compressor selects the compression pipeline.
type Compressor int

// Compressors.
const (
	// CompressorSZ is the prediction-based (Lorenzo) pipeline.
	CompressorSZ Compressor = iota
	// CompressorTransform is the blockwise orthonormal-DCT pipeline.
	// It controls l2 distortion only (no pointwise bound), which makes
	// it most useful in ModePSNR/ModeRel.
	CompressorTransform
	// CompressorWavelet is the blockwise orthonormal Haar-DWT pipeline
	// (SSEM-flavored), sharing the transform back end.
	CompressorWavelet
)

// String names the compressor.
func (c Compressor) String() string {
	switch c {
	case CompressorSZ:
		return "sz"
	case CompressorTransform:
		return "transform"
	case CompressorWavelet:
		return "wavelet"
	default:
		return fmt.Sprintf("compressor(%d)", int(c))
	}
}

// codecName maps the compressor selector to its codec registry key.
func (c Compressor) codecName() string {
	switch c {
	case CompressorSZ:
		return "sz"
	case CompressorTransform, CompressorWavelet:
		return "otc"
	default:
		return ""
	}
}

// transform maps the compressor selector to the block transform used by
// the otc pipeline.
func (c Compressor) transform() codec.Transform {
	if c == CompressorWavelet {
		return codec.TransformHaar
	}
	return codec.TransformDCT
}

// Region is an axis-aligned sub-block of a field: a per-dimension offset
// and extent, the same shape DecodeRegion and ExtractRegion take. Region
// targets use it to mark the rows a quality demand covers.
type Region struct {
	// Off is the region's starting index per dimension.
	Off []int
	// Ext is the region's extent per dimension (every entry positive).
	Ext []int
}

// RegionTarget is one region group's quality demand: hold the given
// sub-block at its own target while the rest of the field follows the
// field-level options — a region of interest at high PSNR over a cheap
// fixed-ratio background, the workload region-of-interest fidelity asks
// for.
//
// Chunk granularity: the chunked container tiles the field into row
// slabs, so a region claims every chunk its rows intersect — region
// boundaries round outward to chunk boundaries, and quality spills over
// to the rest of any chunk the region touches. Two region targets whose
// row windows overlap (or share a chunk) are rejected; chunks no region
// touches follow the field-level target. Per-region PSNR targets are
// defined against the field's global value range, the same normalization
// as the stream-level fixed-PSNR guarantee.
type RegionTarget struct {
	// Name identifies the group in results, stream inspection, and
	// error messages. Empty selects "roi0", "roi1", ... by position;
	// "background" is reserved for the field-level default group.
	Name string
	// Region is the sub-block the target covers.
	Region Region
	// Mode is the group's steering mode: ModePSNR or ModeRatio.
	Mode Mode
	// TargetPSNR is the group's PSNR target in dB (ModePSNR).
	TargetPSNR float64
	// TargetRatio is the group's compression-ratio target (ModeRatio,
	// > 1).
	TargetRatio float64
}

// BackgroundGroup is the name of the implicit default group that holds
// every chunk no region target claims; it follows the field-level
// options.
const BackgroundGroup = "background"

// Options configures Compress.
type Options struct {
	// Mode selects how the error bound is specified (default ModeAbs).
	Mode Mode
	// Compressor selects the pipeline (default CompressorSZ).
	Compressor Compressor
	// Codec, when non-empty, selects a registered pipeline by name and
	// overrides Compressor — the hook through which codecs registered
	// via the public fixedpsnr/codec package become reachable from this
	// API. Decompression needs no selector: it routes by the codec byte
	// in the stream header.
	Codec string

	// ErrorBound is the absolute bound for ModeAbs.
	ErrorBound float64
	// RelBound is the value-range-based relative bound for ModeRel.
	RelBound float64
	// TargetPSNR is the target PSNR in dB for ModePSNR.
	TargetPSNR float64
	// Calibrated refines ModePSNR for low targets (the paper's stated
	// future work). Theorem 1 lets a pipeline measure its exact MSE
	// during compression, so when the Eq. 8 pass lands outside
	// ToleranceDB of the target the bin width is re-derived by a
	// log–log secant step and the field recompressed (up to
	// MaxRefinePasses extra passes). High targets exit after the first
	// pass at no extra cost. Only pipelines that measure their MSE
	// honor it (the SZ family); others ignore it.
	Calibrated bool
	// PWRelBound is the pointwise relative bound for ModePWRel.
	PWRelBound float64
	// TargetRatio is the target compression ratio
	// (OriginalBytes/CompressedBytes, > 1) for ModeRatio. The bound is
	// steered across passes until the achieved ratio lands within
	// RatioTolerance of it; the achieved value is reported in
	// Result.Ratio and the passes consumed in Result.Passes.
	TargetRatio float64

	// RegionTargets steers sub-blocks of the field to their own quality
	// targets: each region becomes a group of chunks driven by its own
	// Measure/Solve loop, while chunks outside every region follow the
	// field-level mode above. Regions are validated against the field at
	// encode time (in bounds, pairwise disjoint row windows); the
	// resulting stream is a version-4 grouped container and the
	// per-group outcomes land in Result.Regions. Requires a chunked
	// pipeline; incompatible with ModePWRel and EncodeFrom.
	RegionTargets []RegionTarget

	// ToleranceDB is the calibrated fixed-PSNR acceptance band in dB
	// around TargetPSNR (0 = the default 0.5 dB). Every steered target
	// reads its band through the same tuning mechanism.
	ToleranceDB float64
	// RatioTolerance is the fixed-ratio acceptance band as a fraction of
	// TargetRatio (0 = the default 0.05, i.e. ±5%).
	RatioTolerance float64
	// MaxRefinePasses bounds the extra compression passes any steered
	// target may take (0 = per-target default: 3 for calibrated
	// fixed-PSNR, 8 for fixed-ratio).
	MaxRefinePasses int
	// NoWarmStart disables the solver warm start an Encoder session
	// keeps per field name (the settled bound of the last steered
	// encode seeds the next encode of the same variable, so repeated
	// snapshots converge in 1–2 passes). Warm starts never apply to
	// one-shot Compress or to region-target encodes; set this when a
	// session must produce bit-reproducible streams for re-encodes of
	// changing data under the same name.
	NoWarmStart bool

	// Capacity is the number of quantization intervals (0 = default
	// 65536); AutoCapacity estimates it from the data instead.
	Capacity     int
	AutoCapacity bool
	// Workers bounds compression concurrency (0 = all CPUs).
	Workers int
	// ChunkRows forces the chunk height (rows along the slowest
	// dimension); zero defers to ChunkPoints.
	ChunkRows int
	// ChunkPoints is the target chunk size in points for the chunked
	// container: the field is tiled into ChunkPoints-sized row slabs
	// along the slowest dimension, each independently decodable, which
	// is what DecodeRegion, archive ExtractRegion, and the streaming
	// EncodeFrom are built on. Zero keeps a Workers-derived tiling for
	// in-memory encodes (and DefaultChunkPoints for EncodeFrom).
	//
	// ChunkPoints interacts with Capacity: every chunk carries its own
	// Huffman table over [0, Capacity) plus a chunk-table entry, so the
	// per-chunk overhead grows with Capacity while the payload shrinks
	// with the chunk. Values below MinChunkPoints (16384) are rejected —
	// below that floor the fixed overhead dominates even at the default
	// capacity.
	ChunkPoints int
	// BlockSize is the transform block edge (transform pipeline), at
	// most MaxBlockSize. Zero selects the default of 8.
	BlockSize int
}

// Validate checks the options for nonsense that no field could make
// valid: a missing or non-finite bound for the selected mode, a
// negative or NaN PSNR target, an unknown mode or pipeline, and absurd
// capacity, block or chunk sizes. It is called by every compression
// entry point — Compress, CompressFields, the ArchiveWriter, and
// NewEncoder — so both the legacy and the session API reject bad
// configurations with the same fixedpsnr-prefixed errors.
//
// A zero ErrorBound in ModeAbs passes: constant fields compress without
// a bound, and the field-dependent check happens at plan time.
func (opt Options) Validate() error {
	badBound := func(name string, v float64) error {
		return fmt.Errorf("fixedpsnr: %s must be positive and finite, got %g", name, v)
	}
	switch opt.Mode {
	case ModeAbs:
		if opt.ErrorBound < 0 || math.IsNaN(opt.ErrorBound) || math.IsInf(opt.ErrorBound, 0) {
			return badBound("ErrorBound", opt.ErrorBound)
		}
	case ModeRel:
		if !(opt.RelBound > 0) || math.IsInf(opt.RelBound, 0) {
			return badBound("RelBound", opt.RelBound)
		}
	case ModePSNR:
		if !(opt.TargetPSNR > 0) || math.IsInf(opt.TargetPSNR, 0) {
			return badBound("TargetPSNR", opt.TargetPSNR)
		}
	case ModePWRel:
		if !(opt.PWRelBound > 0) || opt.PWRelBound >= 1 {
			return fmt.Errorf("fixedpsnr: PWRelBound must be in (0, 1), got %g", opt.PWRelBound)
		}
		if name := opt.codecName(); name != "sz" {
			// Capability-based: any registered codec implementing the
			// pointwise-relative interface qualifies, not just sz.
			c, ok := codec.ByName(name)
			if !ok || !isPWRelCodec(c) {
				return fmt.Errorf("fixedpsnr: ModePWRel is only supported by pipelines with pointwise-relative capability (codec %q has none)", name)
			}
		}
	case ModeRatio:
		if err := validTargetRatio(opt.TargetRatio); err != nil {
			return err
		}
	default:
		return fmt.Errorf("fixedpsnr: unknown mode %v", opt.Mode)
	}
	if len(opt.RegionTargets) > 0 {
		if opt.Mode == ModePWRel {
			return fmt.Errorf("fixedpsnr: RegionTargets are incompatible with ModePWRel (log-domain streams have no chunk-granular recompression)")
		}
		for i, rt := range opt.RegionTargets {
			name := rt.Name
			if name == "" {
				name = fmt.Sprintf("roi%d", i)
			}
			switch rt.Mode {
			case ModePSNR:
				if !(rt.TargetPSNR > 0) || math.IsInf(rt.TargetPSNR, 0) {
					return fmt.Errorf("fixedpsnr: region %q: TargetPSNR must be positive and finite, got %g", name, rt.TargetPSNR)
				}
			case ModeRatio:
				if err := validTargetRatio(rt.TargetRatio); err != nil {
					return fmt.Errorf("fixedpsnr: region %q: %w", name, err)
				}
			default:
				return fmt.Errorf("fixedpsnr: region %q: mode %v cannot steer a region (want ModePSNR or ModeRatio)", name, rt.Mode)
			}
		}
	}
	if opt.ToleranceDB < 0 || math.IsNaN(opt.ToleranceDB) || math.IsInf(opt.ToleranceDB, 0) {
		return fmt.Errorf("fixedpsnr: ToleranceDB must be non-negative and finite, got %g", opt.ToleranceDB)
	}
	if opt.RatioTolerance < 0 || opt.RatioTolerance >= 1 || math.IsNaN(opt.RatioTolerance) {
		return fmt.Errorf("fixedpsnr: RatioTolerance must be in [0, 1), got %g", opt.RatioTolerance)
	}
	if opt.MaxRefinePasses < 0 || opt.MaxRefinePasses > 64 {
		return fmt.Errorf("fixedpsnr: MaxRefinePasses %d outside [0, 64]", opt.MaxRefinePasses)
	}
	if opt.Codec == "" && opt.Compressor.codecName() == "" {
		return fmt.Errorf("fixedpsnr: unknown compressor %v", opt.Compressor)
	}
	// Quantization codes range over [0, Capacity), and the Huffman
	// encoder's dense construction tables are sized by the largest code,
	// so the capacity ceiling also bounds per-chunk encoder memory
	// (~17 bytes/interval). 2^20 is 16× the SZ default of 65536 — far
	// beyond any useful setting.
	if opt.Capacity < 0 || opt.Capacity > 1<<20 {
		return fmt.Errorf("fixedpsnr: Capacity %d outside [0, 2^20]", opt.Capacity)
	}
	if opt.Capacity != 0 && (opt.Capacity < 4 || opt.Capacity%2 != 0) {
		return fmt.Errorf("fixedpsnr: Capacity must be an even number >= 4 (or 0 for the default), got %d", opt.Capacity)
	}
	if opt.BlockSize < 0 || opt.BlockSize > MaxBlockSize {
		return fmt.Errorf("fixedpsnr: BlockSize %d outside [0, %d]", opt.BlockSize, MaxBlockSize)
	}
	// Each chunk pays a Huffman table sized by Capacity plus a chunk-table
	// entry; below MinChunkPoints that fixed overhead dominates the
	// payload (see the ChunkPoints field docs for the Capacity
	// interaction).
	if opt.ChunkPoints != 0 && opt.ChunkPoints < MinChunkPoints {
		return fmt.Errorf("fixedpsnr: ChunkPoints %d below minimum %d (0 selects the default)", opt.ChunkPoints, MinChunkPoints)
	}
	return nil
}

// validTargetRatio rejects compression-ratio targets that no stream can
// achieve: a ratio of 1 or below asks the compressed stream to be at
// least as large as the input, which the solver would otherwise chase
// fruitlessly until MaxRefinePasses ran out.
func validTargetRatio(r float64) error {
	if !(r > 1) || math.IsInf(r, 0) {
		return fmt.Errorf("fixedpsnr: TargetRatio must be finite and > 1, got %g (a ratio at or below 1 means no compression and can never be achieved)", r)
	}
	return nil
}

// isPWRelCodec reports whether a registered codec implements the
// pointwise-relative capability.
func isPWRelCodec(c codec.Codec) bool {
	_, ok := c.(codec.PWRelCodec)
	return ok
}

// codecName resolves the registry key the options select: the explicit
// Codec override when set, the Compressor mapping otherwise.
func (opt Options) codecName() string {
	if opt.Codec != "" {
		return opt.Codec
	}
	return opt.Compressor.codecName()
}

// planRequest lowers the options into the plan layer's error-control
// demand for values stored at the given precision.
func (opt Options) planRequest(prec Precision) plan.Request {
	return plan.Request{
		Mode:         opt.Mode,
		ErrorBound:   opt.ErrorBound,
		RelBound:     opt.RelBound,
		TargetPSNR:   opt.TargetPSNR,
		PWRelBound:   opt.PWRelBound,
		TargetRatio:  opt.TargetRatio,
		BitsPerValue: float64(8 * prec.Bytes()),
		Calibrated:   opt.Calibrated,
		Tuning: plan.Tuning{
			ToleranceDB:    opt.ToleranceDB,
			RatioTolerance: opt.RatioTolerance,
			MaxPasses:      opt.MaxRefinePasses,
		},
	}
}

// codecOptions lowers the public options plus a plan resolution into the
// unified codec configuration.
func (opt Options) codecOptions(res plan.Resolution, vr float64) codec.Options {
	return codec.Options{
		ErrorBound:   res.EbAbs,
		Capacity:     opt.Capacity,
		AutoCapacity: opt.AutoCapacity,
		Workers:      opt.Workers,
		ChunkRows:    opt.ChunkRows,
		ChunkPoints:  opt.ChunkPoints,
		BlockSize:    opt.BlockSize,
		Transform:    opt.Compressor.transform(),
		Mode:         opt.Mode,
		TargetPSNR:   res.TargetPSNR,
		ValueRange:   vr,
	}
}

// Result reports the outcome of one compression.
type Result struct {
	// OriginalBytes and CompressedBytes give the size accounting at the
	// field's declared precision.
	OriginalBytes   int
	CompressedBytes int
	// Ratio is OriginalBytes / CompressedBytes.
	Ratio float64
	// BitRate is compressed bits per value.
	BitRate float64
	// NPoints is the number of values compressed.
	NPoints int
	// Unpredictable counts points (or coefficients) stored losslessly.
	Unpredictable int
	// EbAbs and EbRel are the bounds the quantizer actually ran with.
	// For ModePSNR they come from the Eq. 8 plan.
	EbAbs, EbRel float64
	// TargetPSNR echoes the requested PSNR (NaN for other modes).
	TargetPSNR float64
	// TargetRatio echoes the requested compression ratio (0 for other
	// modes); compare against Ratio for the achieved value.
	TargetRatio float64
	// Passes counts the compression passes the quality-steering loop
	// consumed (1 = the first pass was accepted; steered targets may
	// take extra refinement passes).
	Passes int
	// EstimatedPSNR is the closed-form Eq. 7 prediction of the actual
	// PSNR at the chosen bound (+Inf for constant fields).
	EstimatedPSNR float64
	// MSE and MeasuredPSNR are the *exact* reconstruction distortion,
	// measured during compression via Theorem 1 (pipelines that measure
	// MSE only; NaN for the transform pipelines, +Inf PSNR for
	// lossless/constant).
	MSE          float64
	MeasuredPSNR float64
	// Regions reports the per-group outcome of a region-target encode,
	// in region order with the background group last. Empty unless
	// Options.RegionTargets was set.
	Regions []RegionResult
}

// RegionResult is one region group's steering outcome.
type RegionResult struct {
	// Name is the group's name ("roi0", ..., "background").
	Name string
	// Mode is the group's steering mode.
	Mode Mode
	// TargetPSNR and TargetRatio echo the group's request (NaN / 0 when
	// not applicable).
	TargetPSNR  float64
	TargetRatio float64
	// EbAbs is the absolute bound the group settled on.
	EbAbs float64
	// AchievedPSNR is the group's measured PSNR against the field's
	// global value range (NaN when the pipeline does not measure MSE,
	// +Inf for exact groups).
	AchievedPSNR float64
	// AchievedRatio is the group's compression ratio on payload bytes
	// (the group's nominal storage footprint over its compressed chunk
	// payloads; container overhead is shared and excluded).
	AchievedRatio float64
	// Passes counts the compression passes that touched the group's
	// chunks (1 = the shared first pass was accepted as-is).
	Passes int
	// Chunks is the number of container chunks the group owns.
	Chunks int
}

// Compress compresses the field according to the options and returns the
// self-describing stream plus a result summary. The error-control mode is
// resolved by the plan layer and the stream is produced by whichever
// registered codec the options select.
//
// Compress is the one-shot form: it cannot be cancelled and allocates its
// working buffers fresh every call. Servers and batch jobs should hold an
// Encoder instead, which adds context cancellation, io.Writer streaming,
// batch compression, and scratch-buffer reuse over the same pipeline.
func Compress(f *Field, opt Options) ([]byte, *Result, error) {
	return compress(context.Background(), f, opt, nil, nil)
}

// compress is the shared compression core behind Compress and
// Encoder.Encode: options are validated, the mode is resolved by the plan
// layer, and the stream is produced by the selected registered codec with
// ctx cancellation honored between slabs/blocks/refinement passes and
// transient buffers drawn from sc (both may be Background/nil). wc is the
// session's solver warm-start cache (nil for one-shot callers).
func compress(ctx context.Context, f *Field, opt Options, sc *codec.Scratch, wc *warmCache) ([]byte, *Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	_, _, vr := f.ValueRange()

	req := opt.planRequest(f.Precision)
	res, err := req.Resolve(vr)
	if err != nil {
		return nil, nil, err
	}

	name := opt.codecName()
	c, ok := codec.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("fixedpsnr: codec %q is not registered", name)
	}

	if opt.Mode == ModePWRel {
		// Pointwise-relative compression is a distinct log-domain path
		// dispatched by capability (Validate guarantees the codec has
		// it). The inner log-domain stream annotates its own value range.
		pw, ok := c.(codec.PWRelCodec)
		if !ok {
			return nil, nil, fmt.Errorf("fixedpsnr: codec %q lost its pointwise-relative capability", name)
		}
		blob, st, err := pw.CompressPWRel(ctx, f, opt.PWRelBound, opt.codecOptions(res, 0), sc)
		if err != nil {
			return nil, nil, err
		}
		return blob, resultFromStats(st, opt.PWRelBound, 0, math.NaN(), res.EstimatedPSNR), nil
	}

	// Region targets are validated against the field before any
	// compression; constant fields compress to a single exact header, so
	// region groups have nothing to steer there.
	var specs []plan.GroupSpec
	if len(opt.RegionTargets) > 0 {
		specs, err = regionGroupSpecs(f, opt, req)
		if err != nil {
			return nil, nil, err
		}
		if vr == 0 {
			specs = nil
		}
	}

	copt := opt.codecOptions(res, vr)
	if specs != nil {
		return finishRegions(ctx, f, opt, c, res, vr, copt, specs, sc)
	}
	tgt := req.BuildTarget(c, vr)
	if tgt != nil && !opt.NoWarmStart {
		// Solver warm start: the first pass runs at the bound the last
		// steered encode of this variable settled on, so repeated
		// snapshots converge in 1–2 passes instead of starting
		// data-blind.
		if b, ok := wc.lookup(f.Name, opt); ok {
			copt.ErrorBound = b
		}
	}

	// The plan layer's steering loop runs every pass: the steered
	// quality targets — calibrated fixed-PSNR, fixed ratio — refine the
	// first pass, and single-pass modes get a nil target and one pass.
	blob, st, ebAbs, passes, err := plan.Drive(ctx, f, c, copt, tgt, sc)
	if err != nil {
		return nil, nil, err
	}
	if tgt != nil && !opt.NoWarmStart {
		wc.store(f.Name, opt, ebAbs)
	}
	return blob, steeredResult(st, opt, res, vr, ebAbs, passes), nil
}

// steeredResult is the Result of an encode whose steering settled on
// ebAbs after the given number of passes. A bound that moved off the
// plan's moves EbRel with it, and in ratio mode the PSNR estimate too:
// the planned ratio bound is only the entropy model's seed.
func steeredResult(st *codec.Stats, opt Options, res plan.Resolution, vr, ebAbs float64, passes int) *Result {
	ebRel := res.EbRel
	estimate := res.EstimatedPSNR
	if ebAbs != res.EbAbs {
		if vr > 0 {
			ebRel = ebAbs / vr
		}
		if opt.Mode == ModeRatio {
			estimate = core.EstimatePSNRFromAbsBound(vr, ebAbs)
		}
	}
	r := resultFromStats(st, ebAbs, ebRel, res.TargetPSNR, estimate)
	r.Passes = passes
	if opt.Mode == ModeRatio {
		r.TargetRatio = opt.TargetRatio
	}
	return r
}

// regionGroupSpecs validates the region targets against a concrete field
// and lowers them into the plan layer's group specs: one spec per region
// (row window from the region's slowest-dimension span) plus the default
// background group carrying the field-level request. Regions must fit
// the field and claim pairwise-disjoint row windows — chunk assignment
// happens by row-slab intersection, so overlapping windows would hand
// one chunk two masters.
func regionGroupSpecs(f *Field, opt Options, req plan.Request) ([]plan.GroupSpec, error) {
	specs := make([]plan.GroupSpec, 0, len(opt.RegionTargets)+1)
	seen := map[string]bool{BackgroundGroup: true}
	for i, rt := range opt.RegionTargets {
		name := rt.Name
		if name == "" {
			name = fmt.Sprintf("roi%d", i)
		}
		if name != BackgroundGroup && seen[name] {
			return nil, fmt.Errorf("fixedpsnr: duplicate region name %q", name)
		}
		if name == BackgroundGroup && rt.Name != "" {
			return nil, fmt.Errorf("fixedpsnr: region name %q is reserved for the default group", BackgroundGroup)
		}
		seen[name] = true
		if err := field.ValidateRegion(f.Dims, rt.Region.Off, rt.Region.Ext); err != nil {
			return nil, fmt.Errorf("fixedpsnr: region %q: %w", name, err)
		}
		lo, hi := rt.Region.Off[0], rt.Region.Off[0]+rt.Region.Ext[0]
		for _, prev := range specs {
			if lo < prev.RowHi && prev.RowLo < hi {
				return nil, fmt.Errorf(
					"fixedpsnr: regions %q (rows [%d,%d)) and %q (rows [%d,%d)) overlap: region targets must claim disjoint row windows",
					prev.Name, prev.RowLo, prev.RowHi, name, lo, hi)
			}
		}
		specs = append(specs, plan.GroupSpec{
			Name:  name,
			RowLo: lo,
			RowHi: hi,
			Request: plan.Request{
				Mode:         rt.Mode,
				TargetPSNR:   rt.TargetPSNR,
				TargetRatio:  rt.TargetRatio,
				BitsPerValue: req.BitsPerValue,
				Calibrated:   true, // region PSNR targets steer whenever the codec measures MSE
				Tuning:       req.Tuning,
			},
		})
	}
	specs = append(specs, plan.GroupSpec{Name: BackgroundGroup, Request: req, Default: true})
	return specs, nil
}

// finishRegions encodes a grouped stream: plan.DriveGroups runs the
// first full-field pass, partitions its chunks onto the region groups,
// and steers every group's own chunk subset. The public result carries
// the global accounting plus per-group outcomes.
func finishRegions(ctx context.Context, f *Field, opt Options, c codec.Codec, res plan.Resolution, vr float64, copt codec.Options, specs []plan.GroupSpec, sc *codec.Scratch) ([]byte, *Result, error) {
	final, st, outcomes, err := plan.DriveGroups(ctx, f, c, copt, specs, vr, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("fixedpsnr: %w", err)
	}

	ebAbs := res.EbAbs
	passes := 1
	regions := make([]RegionResult, len(outcomes))
	for i, o := range outcomes {
		if o.Passes > passes {
			passes = o.Passes
		}
		if specs[i].Default && o.Chunks > 0 {
			ebAbs = o.EbAbs
		}
		regions[i] = RegionResult{
			Name:          o.Name,
			Mode:          o.Mode,
			TargetPSNR:    o.TargetPSNR,
			TargetRatio:   o.TargetRatio,
			EbAbs:         o.EbAbs,
			AchievedPSNR:  core.PSNR(o.MSE, vr),
			AchievedRatio: o.Ratio,
			Passes:        o.Passes,
			Chunks:        o.Chunks,
		}
	}
	r := steeredResult(st, opt, res, vr, ebAbs, passes)
	r.Regions = regions
	return final, r, nil
}

// resultFromStats lifts a codec stats report into the public Result. The
// measured PSNR comes from the exact MSE and the value range recorded in
// the stats, so it is correct in every mode — including ModeAbs, where no
// relative bound exists to recover the range from — and NaN when the
// pipeline does not measure MSE.
func resultFromStats(st *codec.Stats, ebAbs, ebRel, target, estimate float64) *Result {
	r := &Result{
		OriginalBytes:   st.OriginalBytes,
		CompressedBytes: st.CompressedBytes,
		Ratio:           st.Ratio,
		BitRate:         st.BitRate,
		NPoints:         st.NPoints,
		Unpredictable:   st.Unpredictable,
		EbAbs:           ebAbs,
		EbRel:           ebRel,
		TargetPSNR:      target,
		EstimatedPSNR:   estimate,
		MSE:             st.MSE,
		MeasuredPSNR:    core.PSNR(st.MSE, st.ValueRange),
		Passes:          1, // steered callers overwrite with the loop's count
	}
	return r
}

// CompressFixedPSNR is shorthand for Compress in ModePSNR with the SZ
// pipeline: one-shot compression to a target PSNR.
func CompressFixedPSNR(f *Field, targetPSNR float64) ([]byte, *Result, error) {
	return Compress(f, Options{Mode: ModePSNR, TargetPSNR: targetPSNR})
}

// Decompress reconstructs a field from any stream produced by Compress.
// Routing goes through the codec registry: the codec byte recorded in the
// header selects the registered pipeline, so new codecs are decodable
// here the moment they register.
func Decompress(data []byte) (*Field, *StreamInfo, error) {
	return codec.Decompress(data)
}

// DecompressRegion reconstructs only the axis-aligned sub-block starting
// at off with extents ext (one entry per dimension) from a compressed
// stream. Only the chunks the region's row window intersects are
// decoded, so the cost scales with the region, not the field; the result
// is byte-identical to slicing a full Decompress.
func DecompressRegion(data []byte, off, ext []int) (*Field, *StreamInfo, error) {
	return codec.DecompressRegion(data, off, ext)
}

// Inspect parses a stream header without decompressing the payload.
func Inspect(data []byte) (*StreamInfo, error) {
	return codec.ParseHeader(data)
}

// Codecs lists the registered compression pipelines.
func Codecs() []string { return codec.Names() }

// RelBoundForPSNR exposes Eq. 8: the value-range-based relative error
// bound that achieves the target PSNR.
func RelBoundForPSNR(targetPSNR float64) float64 {
	return core.RelBoundForPSNR(targetPSNR)
}

// EstimatePSNR exposes Eq. 7: the PSNR an SZ-style compressor achieves at
// an absolute bound ebAbs over data of value range vr.
func EstimatePSNR(vr, ebAbs float64) float64 {
	return core.EstimatePSNRFromAbsBound(vr, ebAbs)
}

// PlanFixedPSNR exposes the full bound derivation for one field.
func PlanFixedPSNR(targetPSNR, vr float64) (Plan, error) {
	return core.PlanFixedPSNR(targetPSNR, vr)
}
