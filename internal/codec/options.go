package codec

// MaxBlockSize is the largest transform block edge: encoders reject a
// larger BlockSize and decoders a payload that declares one, which also
// bounds each worker's block buffer (2·MaxBlockSize³ float64s) and the
// per-edge transform bases a process caches.
const MaxBlockSize = 64

// Options is the unified per-codec configuration. Both pipelines read the
// common core (ErrorBound, Capacity, Workers, and the header
// annotations); each ignores the knobs that do not apply to it, so one
// options struct travels from the public API through the plan layer to
// any registered codec.
type Options struct {
	// ErrorBound is the absolute error bound ebabs — half the
	// quantization bin width (δ = 2·ebabs) in every pipeline. Must be
	// positive unless the field is constant.
	ErrorBound float64
	// Capacity is the number of quantization intervals (2n). Zero
	// selects the pipeline default; AutoCapacity overrides it.
	Capacity int
	// AutoCapacity estimates the capacity from the data (SZ pipeline).
	AutoCapacity bool
	// Workers bounds compression concurrency (non-positive: all CPUs).
	Workers int
	// ChunkRows forces the chunk height along the slowest dimension.
	// Zero defers to ChunkPoints (or a Workers-derived spread).
	ChunkRows int
	// ChunkPoints is the target chunk size in points; chunks are
	// ChunkPoints/inner rows tall (at least one row). Zero keeps the
	// Workers-derived spread for in-memory encodes and
	// DefaultChunkPoints for the streaming encoder. Values below
	// MinChunkPoints are rejected by validation.
	ChunkPoints int
	// BlockSize is the transform block edge (otc pipeline), at most
	// MaxBlockSize. Zero selects the pipeline default.
	BlockSize int
	// Transform selects the block transform (otc pipeline).
	Transform Transform
	// Mode, TargetPSNR, and ValueRange annotate the stream header for
	// inspection; they do not affect the algorithm.
	Mode       Mode
	TargetPSNR float64
	ValueRange float64
}

// Stats is the unified compression outcome report. Fields that a
// pipeline does not measure keep their documented sentinel (NaN MSE for
// pipelines without Theorem 1 measurement, zero Chunks/Blocks when not
// applicable).
type Stats struct {
	OriginalBytes   int
	CompressedBytes int
	Ratio           float64 // OriginalBytes / CompressedBytes
	BitRate         float64 // compressed bits per value
	NPoints         int
	Unpredictable   int // points (or coefficients) stored as literals
	Chunks          int // independently decodable container chunks
	Blocks          int // transform blocks (otc pipeline)
	Capacity        int // quantization intervals actually used
	// ValueRange is the measured value range of the compressed field.
	// Recorded so callers can convert the measured MSE into a PSNR in
	// every mode (including ModeAbs, where no relative bound exists).
	ValueRange float64
	// MSE is the exact mean squared error of the reconstruction,
	// measured during compression (Theorem 1 makes the
	// quantization-stage distortion equal the end-to-end distortion,
	// so no decompression is needed). NaN when the pipeline does not
	// measure it (Codec.MeasuresMSE reports false).
	MSE float64
}
