package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"fixedpsnr/internal/field"
)

// Stream layout, versions 3 and 4 (all integers are unsigned varints
// unless noted):
//
//	magic   "FPSZ"            4 bytes
//	version                   1 byte  (3 = chunked, 4 = chunked + groups)
//	codec                     1 byte  (IDLorenzo, IDConstant, ...)
//	precision                 1 byte  (0 = float32, 1 = float64)
//	mode                      1 byte  (informational: how the bound was set)
//	name                      uvarint length + bytes
//	ndims, dims...            uvarints
//	ebAbs                     8 bytes IEEE-754 LE (0 for constant codec)
//	targetPSNR                8 bytes IEEE-754 LE (NaN when not PSNR mode)
//	valueRange                8 bytes IEEE-754 LE (vr of the original data)
//	capacity                  uvarint (quantization intervals 2n)
//	ngroups, group table      v4 only: ngroups × group entry (below)
//	nchunks                   uvarint
//	chunk table               nchunks × chunk entry (below)
//	chunk payloads            concatenated codec-specific streams
//
// One chunk entry:
//
//	rows                      uvarint (extent along dims[0])
//	off                       uvarint (payload offset from PayloadOffset)
//	len                       uvarint (compressed payload bytes)
//	unpredictable             uvarint (points stored as literals)
//	ebAbs                     8 bytes IEEE-754 LE (0 = header ebAbs)
//	mse                       8 bytes IEEE-754 LE (NaN = unmeasured)
//	min, max                  8 bytes IEEE-754 LE each (chunk value range)
//	group                     uvarint, v4 only (index into the group table)
//
// One group entry (v4 only):
//
//	name                      uvarint length + bytes
//	mode                      1 byte  (how the group's bound was derived)
//	targetPSNR                8 bytes IEEE-754 LE (NaN unless psnr mode)
//	targetRatio               8 bytes IEEE-754 LE (0 unless ratio mode)
//
// Chunks tile the field along the slowest dimension: chunk i covers rows
// [Σ rows_j (j<i), +rows_i) at full extent in every other dimension, and
// every chunk is independently decodable — that is what random-access
// region decoding and the streaming encoder are built on. Offsets must be
// non-overlapping and non-decreasing; gaps are permitted (a rewriter may
// leave dead bytes), overlap is rejected.
//
// Version 4 adds region groups: every chunk belongs to exactly one group
// and each group records the quality target it was steered to (a region
// of interest held at a fixed PSNR, a background steered to a fixed
// ratio). Writers emit version 4 only when a stream has a group table —
// streams with a single implicit group keep the version-3 layout byte for
// byte, and versions 1–3 parse into the same Header with an empty Groups
// slice, which every consumer treats as one implicit group spanning all
// chunks.
//
// Versions 1 and 2 are the legacy whole-field layout: the chunk table is
// a bare (len, rows) pair per chunk with no offsets and no per-chunk
// statistics. Version 2 is accepted as an alias of the version-1 layout
// (the byte was reserved during the session-API era and stamped by some
// interim writers); both remain readable forever.
//
// The constant codec replaces everything from capacity onward with a
// single 8-byte value in every version.

// Magic identifies a fixed-PSNR compressed stream.
var Magic = [4]byte{'F', 'P', 'S', 'Z'}

// Version is the stream format version written for ungrouped streams
// (the chunked container). Streams carrying a region-group table are
// written as VersionGrouped.
const Version = 3

// VersionGrouped is the stream format version with a region-group table:
// the version-3 layout plus per-chunk group IDs and per-group quality
// target descriptors. Only streams with a non-empty group table use it.
const VersionGrouped = 4

// MaxGroups bounds the region-group table size. Groups map to steering
// targets, of which a field has a handful; the cap exists so a corrupt
// header cannot demand absurd allocations.
const MaxGroups = 1 << 10

// Legacy stream format versions that remain readable.
const (
	// VersionLegacy is the original whole-field container layout.
	VersionLegacy = 1
	// VersionLegacy2 is accepted as an alias of the version-1 layout.
	VersionLegacy2 = 2
)

// ID identifies the compression pipeline used for a stream payload. The
// byte value is recorded in the stream header and routes decompression
// through the registry.
type ID uint8

// Stream IDs. New pipelines must pick unused values; the registry panics
// on collisions.
const (
	// IDLorenzo is the SZ pipeline: Lorenzo prediction +
	// error-controlled uniform quantization + Huffman + DEFLATE.
	IDLorenzo ID = 1
	// IDConstant stores a constant field as a single value.
	IDConstant ID = 2
	// IDLogLorenzo is the pointwise-relative pipeline: IDLorenzo
	// applied in the log domain with a sign/zero side channel.
	IDLogLorenzo ID = 3
	// IDOTC is the orthogonal-transform pipeline implemented by
	// internal/otc: blockwise orthonormal DCT + uniform quantization +
	// Huffman + DEFLATE. It shares this container format.
	IDOTC ID = 4
)

// String names the codec ID.
func (c ID) String() string {
	switch c {
	case IDLorenzo:
		return "sz-lorenzo"
	case IDConstant:
		return "constant"
	case IDLogLorenzo:
		return "sz-log-lorenzo"
	case IDOTC:
		return "otc-dct"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Mode records how the error bound embedded in a stream was derived.
// It is informational; decompression never needs it.
type Mode uint8

// Mode values.
const (
	// ModeAbs: the user supplied the absolute error bound directly.
	ModeAbs Mode = iota
	// ModeRel: bound derived from a value-range-based relative bound.
	ModeRel
	// ModePSNR: bound derived from a target PSNR via Eq. 8.
	ModePSNR
	// ModePWRel: pointwise-relative bound (log-domain compression).
	ModePWRel
	// ModeRatio: bound steered to a target compression ratio
	// (FRaZ-style fixed-ratio mode).
	ModeRatio
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAbs:
		return "abs"
	case ModeRel:
		return "rel"
	case ModePSNR:
		return "psnr"
	case ModePWRel:
		return "pwrel"
	case ModeRatio:
		return "ratio"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Transform selects the orthonormal block transform of the otc pipeline.
// It lives here so the unified Options can carry it without depending on
// the pipeline package.
type Transform uint8

// Transforms.
const (
	// TransformDCT is the orthonormal DCT-II (ZFP-flavored).
	TransformDCT Transform = 0
	// TransformHaar is the full multi-level orthonormal Haar DWT
	// (SSEM-flavored).
	TransformHaar Transform = 1
)

// String names the transform.
func (t Transform) String() string {
	switch t {
	case TransformDCT:
		return "dct"
	case TransformHaar:
		return "haar"
	default:
		return fmt.Sprintf("transform(%d)", uint8(t))
	}
}

// ChunkInfo is one entry of the per-chunk index: where the chunk's
// payload lives, which rows it covers, and the statistics measured when
// it was compressed. The index is what makes chunk-granular random
// access (DecodeRegion, archive ExtractRegion) and selective
// recompression during calibrated refinement possible without touching
// any other chunk.
type ChunkInfo struct {
	// Rows is the chunk's extent along Dims[0]; chunks cover the full
	// extent of every other dimension.
	Rows int
	// Off is the payload byte offset relative to Header.PayloadOffset.
	Off int
	// Len is the compressed payload length in bytes.
	Len int
	// Unpredictable counts points (or coefficients) stored as literals
	// (0 for legacy streams, which did not record it).
	Unpredictable int
	// EbAbs is the absolute bound this chunk was quantized with; 0 means
	// the header-level EbAbs. Selective recompression writes per-chunk
	// bounds when it keeps some chunks at a previous pass's bound.
	EbAbs float64
	// MSE is the exact reconstruction MSE of this chunk, measured during
	// compression (Theorem 1 pipelines); NaN when unmeasured (transform
	// pipelines, legacy streams).
	MSE float64
	// Min and Max are the chunk's value range (NaN when unmeasured).
	Min, Max float64
	// Group is the index of the region group this chunk belongs to
	// (into Header.Groups). Zero for streams without a group table,
	// whose chunks all sit in one implicit group.
	Group int
	// RowStart is the first row this chunk covers. It is derived from
	// the Rows prefix sum at parse/assembly time, never serialized.
	RowStart int
}

// GroupInfo is one region-group descriptor of a version-4 stream: the
// named quality target a subset of chunks was steered to. The settled
// absolute bound of each group lives in its chunks' EbAbs entries; the
// descriptor records what the bound was steered toward, so inspection
// tooling and decoders can report per-region quality without the
// original request.
type GroupInfo struct {
	// Name identifies the group ("roi0", "background", ...).
	Name string
	// Mode records how the group's bound was derived (ModePSNR,
	// ModeRatio, or a single-pass mode for pinned groups).
	Mode Mode
	// TargetPSNR is the group's PSNR target in dB (NaN unless Mode is
	// ModePSNR).
	TargetPSNR float64
	// TargetRatio is the group's compression-ratio target (0 unless
	// Mode is ModeRatio).
	TargetRatio float64
}

// Header describes a compressed stream.
type Header struct {
	// Version is the stream format version this header was parsed from;
	// Marshal always emits the current Version.
	Version    uint8
	Codec      ID
	Precision  field.Precision
	Mode       Mode
	Name       string
	Dims       []int
	EbAbs      float64 // absolute error bound used for quantization
	TargetPSNR float64 // NaN unless Mode == ModePSNR
	ValueRange float64 // vr of the original data (recorded for inspection)
	Capacity   int     // quantization intervals (2n)
	// Groups is the region-group table (version 4). Empty for every
	// other version and for ungrouped version-3 streams: consumers must
	// treat an empty table as one implicit group holding every chunk.
	Groups []GroupInfo
	// Chunks is the per-chunk index (empty for IDConstant streams).
	Chunks []ChunkInfo
	// ConstValue holds the value of a constant field (IDConstant).
	ConstValue float64
	// headerLen is the byte offset where chunk payloads begin.
	headerLen int
}

// PayloadOffset returns the byte offset where chunk payloads begin in the
// stream this header was parsed from. It is only meaningful on headers
// returned by ParseHeader.
func (h *Header) PayloadOffset() int { return h.headerLen }

// NPoints returns the total number of points implied by Dims.
func (h *Header) NPoints() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// InnerPoints returns the number of points per row along Dims[0] (the
// product of the non-slowest dimensions).
func (h *Header) InnerPoints() int {
	n := 1
	for _, d := range h.Dims[1:] {
		n *= d
	}
	return n
}

// ChunkDims returns the dims of chunk ci: its row extent followed by the
// field's inner dimensions.
func (h *Header) ChunkDims(ci int) []int {
	return append([]int{h.Chunks[ci].Rows}, h.Dims[1:]...)
}

// ChunkPoints returns the number of points in chunk ci.
func (h *Header) ChunkPoints(ci int) int {
	return h.Chunks[ci].Rows * h.InnerPoints()
}

// ChunkBound returns the absolute bound chunk ci was quantized with: its
// per-chunk bound when recorded, the header bound otherwise.
func (h *Header) ChunkBound(ci int) float64 {
	if eb := h.Chunks[ci].EbAbs; eb > 0 {
		return eb
	}
	return h.EbAbs
}

// AggregateMSE computes the field MSE as the point-count-weighted mean of
// the per-chunk MSEs — the global accounting the fixed-PSNR guarantee is
// defined on (Eqs. 4–5 hold for the whole field, not per chunk): the
// GroupAggregateMSE of every chunk. It returns NaN when any chunk's MSE
// is unmeasured or there are no chunks, and 0 for constant streams.
func (h *Header) AggregateMSE() float64 {
	if h.Codec == IDConstant {
		return 0
	}
	all := make([]int, len(h.Chunks))
	for ci := range all {
		all[ci] = ci
	}
	return h.GroupAggregateMSE(all)
}

// GroupChunks returns the indices of the chunks in group g, in chunk
// order. With an empty group table, group 0 holds every chunk.
func (h *Header) GroupChunks(g int) []int {
	var out []int
	for ci := range h.Chunks {
		if h.Chunks[ci].Group == g {
			out = append(out, ci)
		}
	}
	return out
}

// GroupAggregateMSE computes the point-count-weighted mean of the MSEs of
// one chunk subset, summed in subset order — the per-group distortion
// accounting the region-aware steering loop drives on. NaN when any chunk
// in the subset is unmeasured or the subset is empty.
func (h *Header) GroupAggregateMSE(chunks []int) float64 {
	inner := h.InnerPoints()
	var sumSq float64
	var n int
	for _, ci := range chunks {
		c := &h.Chunks[ci]
		if math.IsNaN(c.MSE) {
			return math.NaN()
		}
		pts := c.Rows * inner
		sumSq += c.MSE * float64(pts)
		n += pts
	}
	if n == 0 {
		return math.NaN()
	}
	return sumSq / float64(n)
}

// GroupPayloadBytes sums the compressed payload bytes of one chunk
// subset — the size statistic per-group ratio steering measures (header
// overhead is shared by all groups and excluded).
func (h *Header) GroupPayloadBytes(chunks []int) int {
	n := 0
	for _, ci := range chunks {
		n += h.Chunks[ci].Len
	}
	return n
}

// GroupPoints counts the values covered by one chunk subset.
func (h *Header) GroupPoints(chunks []int) int {
	rows := 0
	for _, ci := range chunks {
		rows += h.Chunks[ci].Rows
	}
	return rows * h.InnerPoints()
}

// AppendFloat64 appends v as 8 bytes IEEE-754 little-endian.
func AppendFloat64(b []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(b, tmp[:]...)
}

// ReadFloat64 consumes 8 bytes IEEE-754 little-endian.
func ReadFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("codec: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// ReadUvarint consumes one unsigned varint.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("codec: truncated varint")
	}
	return v, b[k:], nil
}

// headerParses counts ParseHeader calls. Tests use it to prove that
// index-based archive access touches only the entries it must.
var headerParses atomic.Int64

// HeaderParses returns the number of ParseHeader calls so far.
func HeaderParses() int64 { return headerParses.Load() }

// marshalPrefix emits the fields shared by every version up to and
// including the dims.
func (h *Header) marshalPrefix(version byte) []byte {
	out := make([]byte, 0, 64+len(h.Name)+48*len(h.Chunks))
	out = append(out, Magic[:]...)
	out = append(out, version)
	out = append(out, byte(h.Codec))
	out = append(out, byte(h.Precision))
	out = append(out, byte(h.Mode))
	out = binary.AppendUvarint(out, uint64(len(h.Name)))
	out = append(out, h.Name...)
	out = binary.AppendUvarint(out, uint64(len(h.Dims)))
	for _, d := range h.Dims {
		out = binary.AppendUvarint(out, uint64(d))
	}
	return out
}

// marshalScalars emits the bound/annotation block shared by every
// version (or the constant value, which ends the header).
func (h *Header) marshalScalars(out []byte) []byte {
	out = AppendFloat64(out, h.EbAbs)
	out = AppendFloat64(out, h.TargetPSNR)
	out = AppendFloat64(out, h.ValueRange)
	out = binary.AppendUvarint(out, uint64(h.Capacity))
	return out
}

// Marshal serializes the header in the current chunked format: version 3
// when the stream has no group table, version 4 (group table + per-chunk
// group IDs) when it does — so ungrouped streams stay byte-identical to
// pre-group writers. All registered codecs share this container format so
// that inspection tooling and random access work uniformly. Chunk offsets
// and lengths must already be final; AssembleStream fills them from the
// payload slices and calls Marshal.
func (h *Header) Marshal() []byte {
	grouped := len(h.Groups) > 0
	version := byte(Version)
	if grouped {
		version = VersionGrouped
	}
	out := h.marshalPrefix(version)
	if h.Codec == IDConstant {
		return AppendFloat64(out, h.ConstValue)
	}
	out = h.marshalScalars(out)
	if grouped {
		out = binary.AppendUvarint(out, uint64(len(h.Groups)))
		for _, g := range h.Groups {
			out = binary.AppendUvarint(out, uint64(len(g.Name)))
			out = append(out, g.Name...)
			out = append(out, byte(g.Mode))
			out = AppendFloat64(out, g.TargetPSNR)
			out = AppendFloat64(out, g.TargetRatio)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(h.Chunks)))
	for _, c := range h.Chunks {
		out = binary.AppendUvarint(out, uint64(c.Rows))
		out = binary.AppendUvarint(out, uint64(c.Off))
		out = binary.AppendUvarint(out, uint64(c.Len))
		out = binary.AppendUvarint(out, uint64(c.Unpredictable))
		out = AppendFloat64(out, c.EbAbs)
		out = AppendFloat64(out, c.MSE)
		out = AppendFloat64(out, c.Min)
		out = AppendFloat64(out, c.Max)
		if grouped {
			out = binary.AppendUvarint(out, uint64(c.Group))
		}
	}
	return out
}

// MarshalLegacy serializes the header in the legacy (version 1 or 2)
// layout: a bare (len, rows) chunk table with no offsets or statistics.
// It exists so compatibility fixtures and migration tests can produce
// old-format streams; production writers always emit the current version
// via Marshal. Per-chunk bounds cannot be represented and must be unset.
func (h *Header) MarshalLegacy(version byte) ([]byte, error) {
	if version != VersionLegacy && version != VersionLegacy2 {
		return nil, fmt.Errorf("codec: MarshalLegacy supports versions %d and %d, got %d",
			VersionLegacy, VersionLegacy2, version)
	}
	if len(h.Groups) > 0 {
		return nil, fmt.Errorf("codec: header has %d region groups; legacy layout cannot record them", len(h.Groups))
	}
	for i, c := range h.Chunks {
		if c.EbAbs != 0 {
			return nil, fmt.Errorf("codec: chunk %d has a per-chunk bound; legacy layout cannot record it", i)
		}
		if c.Group != 0 {
			return nil, fmt.Errorf("codec: chunk %d has a region group; legacy layout cannot record it", i)
		}
	}
	out := h.marshalPrefix(version)
	if h.Codec == IDConstant {
		return AppendFloat64(out, h.ConstValue), nil
	}
	out = h.marshalScalars(out)
	out = binary.AppendUvarint(out, uint64(len(h.Chunks)))
	for _, c := range h.Chunks {
		out = binary.AppendUvarint(out, uint64(c.Len))
		out = binary.AppendUvarint(out, uint64(c.Rows))
	}
	return out, nil
}

// ParseHeader decodes the header of a compressed stream without touching
// the chunk payloads. It validates the magic, version, structural sanity
// of the dimensions and chunk table, and that the stream is long enough
// to hold the payloads the header declares.
func ParseHeader(data []byte) (*Header, error) {
	return parseHeader(data, true)
}

// ParseHeaderPrefix decodes a header from a stream prefix: identical to
// ParseHeader except that the declared chunk payloads need not be present
// in data. Callers that only want metadata (archive listings, chunk
// tables for region reads) use it to read a bounded prefix instead of a
// whole entry.
func ParseHeaderPrefix(data []byte) (*Header, error) {
	return parseHeader(data, false)
}

func parseHeader(data []byte, requirePayload bool) (*Header, error) {
	headerParses.Add(1)
	b := data
	if len(b) < 8 {
		return nil, fmt.Errorf("codec: stream too short (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != Magic {
		return nil, fmt.Errorf("codec: bad magic %q", b[:4])
	}
	b = b[4:]
	version := b[0]
	switch version {
	case VersionLegacy, VersionLegacy2, Version, VersionGrouped:
	default:
		return nil, fmt.Errorf("codec: unsupported version %d", version)
	}
	h := &Header{Version: version}
	h.Codec = ID(b[1])
	h.Precision = field.Precision(b[2])
	h.Mode = Mode(b[3])
	b = b[4:]

	nameLen, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if uint64(len(b)) < nameLen || nameLen > 1<<20 {
		return nil, fmt.Errorf("codec: bad name length %d", nameLen)
	}
	h.Name = string(b[:nameLen])
	b = b[nameLen:]

	ndims, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if ndims == 0 || ndims > 3 {
		return nil, fmt.Errorf("codec: unsupported rank %d", ndims)
	}
	h.Dims = make([]int, ndims)
	total := 1
	for i := range h.Dims {
		var d uint64
		d, b, err = ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<40 {
			return nil, fmt.Errorf("codec: bad dimension %d", d)
		}
		if int(d) > (1<<50)/total {
			return nil, fmt.Errorf("codec: field size overflows (%v...)", h.Dims[:i+1])
		}
		h.Dims[i] = int(d)
		total *= int(d)
	}

	if h.Codec == IDConstant {
		h.ConstValue, b, err = ReadFloat64(b)
		if err != nil {
			return nil, err
		}
		h.headerLen = len(data) - len(b)
		return h, nil
	}

	if h.EbAbs, b, err = ReadFloat64(b); err != nil {
		return nil, err
	}
	if h.TargetPSNR, b, err = ReadFloat64(b); err != nil {
		return nil, err
	}
	if h.ValueRange, b, err = ReadFloat64(b); err != nil {
		return nil, err
	}
	capacity, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if capacity < 4 || capacity > 1<<30 {
		return nil, fmt.Errorf("codec: bad capacity %d", capacity)
	}
	h.Capacity = int(capacity)
	if version == VersionGrouped {
		if b, err = parseGroupTable(h, b); err != nil {
			return nil, err
		}
	}
	nchunks, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if nchunks == 0 || nchunks > 1<<20 {
		return nil, fmt.Errorf("codec: bad chunk count %d", nchunks)
	}
	h.Chunks = make([]ChunkInfo, nchunks)
	switch version {
	case Version, VersionGrouped:
		b, err = parseChunkTable(h, b, version == VersionGrouped)
	default:
		b, err = parseLegacyChunkTable(h, b)
	}
	if err != nil {
		return nil, err
	}
	h.headerLen = len(data) - len(b)
	if requirePayload {
		need := 0
		for _, c := range h.Chunks {
			if end := c.Off + c.Len; end > need {
				need = end
			}
		}
		if len(b) < need {
			return nil, fmt.Errorf("codec: chunk payloads truncated (%d < %d)", len(b), need)
		}
	}
	return h, nil
}

// parseGroupTable decodes the version-4 region-group table. A grouped
// stream must declare at least one group; the chunk table that follows
// references entries by index.
func parseGroupTable(h *Header, b []byte) ([]byte, error) {
	ngroups, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if ngroups == 0 || ngroups > MaxGroups {
		return nil, fmt.Errorf("codec: bad group count %d", ngroups)
	}
	h.Groups = make([]GroupInfo, ngroups)
	for i := range h.Groups {
		nameLen, rest, err := ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if uint64(len(b)) < nameLen || nameLen > 1<<10 {
			return nil, fmt.Errorf("codec: group %d bad name length %d", i, nameLen)
		}
		g := &h.Groups[i]
		g.Name = string(b[:nameLen])
		b = b[nameLen:]
		if len(b) < 1 {
			return nil, fmt.Errorf("codec: group %d truncated", i)
		}
		g.Mode = Mode(b[0])
		b = b[1:]
		if g.TargetPSNR, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if g.TargetRatio, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if g.TargetRatio < 0 || math.IsInf(g.TargetRatio, 0) || math.IsNaN(g.TargetRatio) {
			return nil, fmt.Errorf("codec: group %d bad target ratio %g", i, g.TargetRatio)
		}
	}
	return b, nil
}

// parseChunkTable decodes the version-3/4 chunk index and validates its
// invariants: per-chunk rows cover Dims[0] exactly, offsets are
// non-overlapping and non-decreasing, no entry's extent overflows, and
// (version 4) every chunk's group ID points into the group table.
func parseChunkTable(h *Header, b []byte, grouped bool) ([]byte, error) {
	rowSum := 0
	prevEnd := 0
	var err error
	for i := range h.Chunks {
		var rows, off, length, unpred uint64
		if rows, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		if off, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		if length, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		if unpred, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		c := &h.Chunks[i]
		if c.EbAbs, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if c.MSE, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if c.Min, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if c.Max, b, err = ReadFloat64(b); err != nil {
			return nil, err
		}
		if grouped {
			var group uint64
			if group, b, err = ReadUvarint(b); err != nil {
				return nil, err
			}
			if group >= uint64(len(h.Groups)) {
				return nil, fmt.Errorf("codec: chunk %d references group %d of %d", i, group, len(h.Groups))
			}
			c.Group = int(group)
		}
		if rows > 1<<50 || off > 1<<50 || length > 1<<50 || unpred > 1<<50 {
			return nil, fmt.Errorf("codec: chunk %d entry overflows", i)
		}
		if rows == 0 || int(rows) > h.Dims[0]-rowSum {
			return nil, fmt.Errorf("codec: chunk %d covers %d rows with %d remaining", i, rows, h.Dims[0]-rowSum)
		}
		if int(off) < prevEnd {
			return nil, fmt.Errorf("codec: chunk %d payload [%d,+%d) overlaps previous end %d", i, off, length, prevEnd)
		}
		c.Rows = int(rows)
		c.Off = int(off)
		c.Len = int(length)
		c.Unpredictable = int(unpred)
		c.RowStart = rowSum
		rowSum += int(rows)
		prevEnd = int(off) + int(length)
	}
	if rowSum != h.Dims[0] {
		return nil, fmt.Errorf("codec: chunk rows sum to %d, want %d", rowSum, h.Dims[0])
	}
	return b, nil
}

// parseLegacyChunkTable decodes the version-1/2 (len, rows) pair table
// into the unified chunk index: offsets come from the running length sum
// and the per-chunk statistics are marked unmeasured.
func parseLegacyChunkTable(h *Header, b []byte) ([]byte, error) {
	rowSum := 0
	off := 0
	var err error
	for i := range h.Chunks {
		var length, rows uint64
		if length, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		if rows, b, err = ReadUvarint(b); err != nil {
			return nil, err
		}
		if length > 1<<50 || rows > 1<<50 {
			return nil, fmt.Errorf("codec: chunk %d entry overflows", i)
		}
		if rows == 0 {
			return nil, fmt.Errorf("codec: chunk %d covers no rows", i)
		}
		h.Chunks[i] = ChunkInfo{
			Rows:     int(rows),
			Off:      off,
			Len:      int(length),
			EbAbs:    0,
			MSE:      math.NaN(),
			Min:      math.NaN(),
			Max:      math.NaN(),
			RowStart: rowSum,
		}
		off += int(length)
		rowSum += int(rows)
	}
	if rowSum != h.Dims[0] {
		return nil, fmt.Errorf("codec: chunk rows sum to %d, want %d", rowSum, h.Dims[0])
	}
	return b, nil
}
