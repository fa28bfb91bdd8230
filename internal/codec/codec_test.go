package codec_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	_ "fixedpsnr/internal/otc"
	_ "fixedpsnr/internal/sz"
)

func TestRegistryRoutesBothPipelines(t *testing.T) {
	for id, want := range map[codec.ID]string{
		codec.IDLorenzo:    "sz",
		codec.IDConstant:   "sz",
		codec.IDLogLorenzo: "sz",
		codec.IDOTC:        "otc",
	} {
		c, ok := codec.Lookup(id)
		if !ok {
			t.Fatalf("no codec registered for %v", id)
		}
		if c.Name() != want {
			t.Fatalf("%v routed to %q, want %q", id, c.Name(), want)
		}
	}
	names := codec.Names()
	if len(names) != 2 || names[0] != "otc" || names[1] != "sz" {
		t.Fatalf("Names() = %v", names)
	}
	if _, ok := codec.Lookup(codec.ID(99)); ok {
		t.Fatal("Lookup(99) found a codec")
	}
	if _, ok := codec.ByName("zstd"); ok {
		t.Fatal(`ByName("zstd") found a codec`)
	}
}

func TestMeasuresMSECapability(t *testing.T) {
	szc, _ := codec.ByName("sz")
	otcc, _ := codec.ByName("otc")
	if !szc.MeasuresMSE() {
		t.Fatal("sz must measure its MSE (Theorem 1)")
	}
	if otcc.MeasuresMSE() {
		t.Fatal("otc does not measure data-domain MSE")
	}
}

func testField(t *testing.T) *field.Field {
	t.Helper()
	f := field.New("route", field.Float64, 24, 24)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 9)
	}
	return f
}

func TestDecompressRoutesByRegistry(t *testing.T) {
	f := testField(t)
	opt := codec.Options{ErrorBound: 1e-3, Workers: 1}
	for _, name := range codec.Names() {
		c, _ := codec.ByName(name)
		blob, _, err := codec.Encode(context.Background(), f, c, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, h, err := codec.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: registry decompression: %v", name, err)
		}
		if g.Name != f.Name || !g.SameShape(f) {
			t.Fatalf("%s: reconstruction metadata mismatch", name)
		}
		if owner, _ := codec.Lookup(h.Codec); owner.Name() != name {
			t.Fatalf("stream ID %v owned by %q, compressed by %q", h.Codec, owner.Name(), name)
		}
	}
}

// encode compresses f through the named registered pipeline.
func encode(t *testing.T, name string, f *field.Field, opt codec.Options) ([]byte, *codec.Stats, error) {
	t.Helper()
	c, ok := codec.ByName(name)
	if !ok {
		t.Fatalf("codec %q is not registered", name)
	}
	return codec.Encode(context.Background(), f, c, opt, nil)
}

func TestDecompressUnknownStreamID(t *testing.T) {
	f := testField(t)
	blob, _, err := encode(t, "sz", f, codec.Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob[5] = 200 // unregistered codec byte
	_, _, err = codec.Decompress(blob)
	if err == nil || !strings.Contains(err.Error(), "no registered codec") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnifiedStatsRecordValueRange(t *testing.T) {
	f := testField(t)
	_, _, vr := f.ValueRange()
	_, st, err := encode(t, "sz", f, codec.Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ValueRange != vr {
		t.Fatalf("sz stats vr = %g, want %g", st.ValueRange, vr)
	}
	_, ost, err := encode(t, "otc", f, codec.Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ost.ValueRange != vr {
		t.Fatalf("otc stats vr = %g, want %g", ost.ValueRange, vr)
	}
	if !math.IsNaN(ost.MSE) {
		t.Fatalf("otc stats MSE = %g, want NaN (unmeasured)", ost.MSE)
	}
}

type fakeCodec struct {
	name string
	ids  []codec.ID
}

func (f fakeCodec) Name() string      { return f.name }
func (f fakeCodec) IDs() []codec.ID   { return f.ids }
func (f fakeCodec) MeasuresMSE() bool { return false }
func (f fakeCodec) CompressChunk(context.Context, []float64, []int, field.Precision, codec.Options, *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	return nil, codec.ChunkStats{}, nil
}
func (f fakeCodec) DecompressChunk([]byte, *codec.Header, int, []float64, *codec.Scratch) error {
	return nil
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegisterCollisionsPanic(t *testing.T) {
	mustPanic(t, "duplicate name", func() {
		codec.Register(fakeCodec{name: "sz", ids: []codec.ID{77}})
	})
	mustPanic(t, "duplicate stream ID", func() {
		codec.Register(fakeCodec{name: "fresh", ids: []codec.ID{codec.IDLorenzo}})
	})
	mustPanic(t, "empty name", func() {
		codec.Register(fakeCodec{name: "", ids: []codec.ID{78}})
	})
	mustPanic(t, "no IDs", func() {
		codec.Register(fakeCodec{name: "empty-ids"})
	})
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[codec.Mode]string{
		codec.ModeAbs: "abs", codec.ModeRel: "rel", codec.ModePSNR: "psnr", codec.ModePWRel: "pwrel", codec.Mode(9): "mode(9)",
	} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	for c, want := range map[codec.ID]string{
		codec.IDLorenzo: "sz-lorenzo", codec.IDConstant: "constant",
		codec.IDLogLorenzo: "sz-log-lorenzo", codec.IDOTC: "otc-dct", codec.ID(9): "codec(9)",
	} {
		if c.String() != want {
			t.Fatalf("ID.String() = %q, want %q", c.String(), want)
		}
	}
}

func TestHeaderMarshalParseRoundTrip(t *testing.T) {
	h := &codec.Header{
		Codec:      codec.IDLorenzo,
		Precision:  field.Float32,
		Mode:       codec.ModePSNR,
		Name:       "round-trip",
		Dims:       []int{4, 6, 8},
		EbAbs:      1e-3,
		TargetPSNR: 64,
		ValueRange: 2.5,
		Capacity:   1024,
		Chunks: []codec.ChunkInfo{
			{Rows: 2, Off: 0, Len: 9, Unpredictable: 3, EbAbs: 0, MSE: 2.5e-7, Min: -1, Max: 1.5},
			{Rows: 2, Off: 9, Len: 11, Unpredictable: 0, EbAbs: 5e-4, MSE: 1e-7, Min: 0, Max: 0.5},
		},
	}
	raw := append(h.Marshal(), make([]byte, 20)...) // payload space
	g, err := codec.ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if g.Codec != h.Codec || g.Precision != h.Precision || g.Mode != h.Mode ||
		g.Name != h.Name || g.EbAbs != h.EbAbs || g.TargetPSNR != h.TargetPSNR ||
		g.ValueRange != h.ValueRange || g.Capacity != h.Capacity {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, h)
	}
	if g.Version != codec.Version {
		t.Fatalf("Version = %d, want %d", g.Version, codec.Version)
	}
	if len(g.Chunks) != 2 {
		t.Fatalf("Chunks = %d, want 2", len(g.Chunks))
	}
	for i := range g.Chunks {
		want := h.Chunks[i]
		want.RowStart = i * 2
		if g.Chunks[i] != want {
			t.Fatalf("chunk %d = %+v, want %+v", i, g.Chunks[i], want)
		}
	}
	if g.ChunkBound(0) != h.EbAbs || g.ChunkBound(1) != 5e-4 {
		t.Fatalf("ChunkBound = %g, %g", g.ChunkBound(0), g.ChunkBound(1))
	}
	if g.NPoints() != 4*6*8 {
		t.Fatalf("NPoints = %d", g.NPoints())
	}
	if g.PayloadOffset() != len(raw)-20 {
		t.Fatalf("PayloadOffset = %d, want %d", g.PayloadOffset(), len(raw)-20)
	}
	// The aggregate is the point-weighted mean of the chunk MSEs; both
	// chunks cover the same point count here.
	if agg := g.AggregateMSE(); math.Abs(agg-(2.5e-7+1e-7)/2) > 1e-20 {
		t.Fatalf("AggregateMSE = %g", agg)
	}
}

func TestHeaderLegacyVersionsReadable(t *testing.T) {
	h := &codec.Header{
		Codec:      codec.IDLorenzo,
		Precision:  field.Float64,
		Mode:       codec.ModeAbs,
		Name:       "legacy",
		Dims:       []int{6, 10},
		EbAbs:      1e-3,
		TargetPSNR: math.NaN(),
		ValueRange: 1,
		Capacity:   65536,
		Chunks: []codec.ChunkInfo{
			{Rows: 3, Len: 7},
			{Rows: 3, Len: 5},
		},
	}
	for _, version := range []byte{codec.VersionLegacy, codec.VersionLegacy2} {
		raw, err := h.MarshalLegacy(version)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, make([]byte, 12)...) // payload space
		g, err := codec.ParseHeader(raw)
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if g.Version != version {
			t.Fatalf("Version = %d, want %d", g.Version, version)
		}
		if len(g.Chunks) != 2 ||
			g.Chunks[0].Rows != 3 || g.Chunks[0].Off != 0 || g.Chunks[0].Len != 7 ||
			g.Chunks[1].Off != 7 || g.Chunks[1].RowStart != 3 {
			t.Fatalf("v%d chunks = %+v", version, g.Chunks)
		}
		// Legacy chunk statistics are unmeasured.
		if !math.IsNaN(g.Chunks[0].MSE) || !math.IsNaN(g.AggregateMSE()) {
			t.Fatalf("v%d: legacy chunk MSE should be NaN", version)
		}
	}
	// Per-chunk bounds are unrepresentable in the legacy layout.
	h.Chunks[1].EbAbs = 1e-4
	if _, err := h.MarshalLegacy(codec.VersionLegacy); err == nil {
		t.Fatal("MarshalLegacy accepted a per-chunk bound")
	}
	if _, err := h.MarshalLegacy(7); err == nil {
		t.Fatal("MarshalLegacy accepted version 7")
	}
}

func TestParseHeaderRejectsBadChunkTables(t *testing.T) {
	mk := func(mut func(h *codec.Header)) []byte {
		h := &codec.Header{
			Codec: codec.IDLorenzo, Precision: field.Float64, Name: "bad",
			Dims: []int{8, 4}, EbAbs: 1e-3, TargetPSNR: math.NaN(),
			ValueRange: 1, Capacity: 65536,
			Chunks: []codec.ChunkInfo{{Rows: 4, Off: 0, Len: 6}, {Rows: 4, Off: 6, Len: 6}},
		}
		mut(h)
		return append(h.Marshal(), make([]byte, 64)...)
	}
	cases := map[string]func(h *codec.Header){
		"overlapping payloads": func(h *codec.Header) { h.Chunks[1].Off = 3 },
		"rows exceed dims":     func(h *codec.Header) { h.Chunks[1].Rows = 40 },
		"rows fall short":      func(h *codec.Header) { h.Chunks[1].Rows = 1 },
		"zero-row chunk":       func(h *codec.Header) { h.Chunks[1].Rows = 0 },
		// Marshal writes uint64(-4) = 2^64-4; the parser must reject the
		// overflow rather than wrap to a negative row count that panics
		// every downstream slicer.
		"rows uvarint overflow": func(h *codec.Header) { h.Chunks[0].Rows = -4; h.Chunks[1].Rows = 12 },
	}
	for name, mut := range cases {
		if _, err := codec.ParseHeader(mk(mut)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Out-of-bounds payload extent: header valid, stream too short.
	ok := mk(func(*codec.Header) {})
	if _, err := codec.ParseHeader(ok[:len(ok)-60]); err == nil {
		t.Error("truncated payloads: accepted")
	}
}
