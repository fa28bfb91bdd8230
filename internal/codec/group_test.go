package codec_test

import (
	"math"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// groupedHeader builds a representative version-4 header: two groups,
// four chunks with per-chunk bounds and mixed ownership.
func groupedHeader() *codec.Header {
	return &codec.Header{
		Codec:      codec.IDLorenzo,
		Precision:  field.Float32,
		Mode:       codec.ModeRatio,
		Name:       "grouped",
		Dims:       []int{8, 16},
		EbAbs:      2e-3,
		TargetPSNR: math.NaN(),
		ValueRange: 2,
		Capacity:   65536,
		Groups: []codec.GroupInfo{
			{Name: "roi0", Mode: codec.ModePSNR, TargetPSNR: 80, TargetRatio: 0},
			{Name: "background", Mode: codec.ModeRatio, TargetPSNR: math.NaN(), TargetRatio: 8},
		},
		Chunks: []codec.ChunkInfo{
			{Rows: 2, Off: 0, Len: 10, EbAbs: 2e-3, MSE: 1e-8, Min: -1, Max: 1, Group: 1},
			{Rows: 2, Off: 10, Len: 12, EbAbs: 1e-5, MSE: 2e-10, Min: 0, Max: 2, Group: 0},
			{Rows: 2, Off: 22, Len: 8, EbAbs: 1e-5, MSE: 3e-10, Min: 0, Max: 1, Group: 0},
			{Rows: 2, Off: 30, Len: 9, EbAbs: 2e-3, MSE: 2e-8, Min: -1, Max: 0, Group: 1},
		},
	}
}

// TestGroupedHeaderRoundTrip: a version-4 header survives marshal →
// parse with its group table, per-chunk group IDs, and bounds intact,
// and the version byte is 4 exactly when a group table is present.
func TestGroupedHeaderRoundTrip(t *testing.T) {
	h := groupedHeader()
	raw := append(h.Marshal(), make([]byte, 40)...)
	if raw[4] != codec.VersionGrouped {
		t.Fatalf("version byte = %d, want %d", raw[4], codec.VersionGrouped)
	}
	g, err := codec.ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != codec.VersionGrouped {
		t.Fatalf("Version = %d", g.Version)
	}
	if len(g.Groups) != 2 {
		t.Fatalf("Groups = %+v", g.Groups)
	}
	if g.Groups[0].Name != "roi0" || g.Groups[0].Mode != codec.ModePSNR || g.Groups[0].TargetPSNR != 80 {
		t.Fatalf("group 0 = %+v", g.Groups[0])
	}
	if g.Groups[1].Name != "background" || g.Groups[1].TargetRatio != 8 || !math.IsNaN(g.Groups[1].TargetPSNR) {
		t.Fatalf("group 1 = %+v", g.Groups[1])
	}
	for ci := range g.Chunks {
		if g.Chunks[ci].Group != h.Chunks[ci].Group {
			t.Fatalf("chunk %d group = %d, want %d", ci, g.Chunks[ci].Group, h.Chunks[ci].Group)
		}
		if g.ChunkBound(ci) != h.Chunks[ci].EbAbs {
			t.Fatalf("chunk %d bound = %g", ci, g.ChunkBound(ci))
		}
	}

	// Ungrouped headers keep the version-3 byte layout.
	h3 := groupedHeader()
	h3.Groups = nil
	for i := range h3.Chunks {
		h3.Chunks[i].Group = 0
	}
	raw3 := h3.Marshal()
	if raw3[4] != codec.Version {
		t.Fatalf("ungrouped version byte = %d, want %d", raw3[4], codec.Version)
	}
}

// TestGroupedHeaderValidation: group IDs out of range, empty group
// tables, and oversized tables are rejected.
func TestGroupedHeaderValidation(t *testing.T) {
	// Chunk referencing a group beyond the table.
	h := groupedHeader()
	h.Chunks[0].Group = 2
	if _, err := codec.ParseHeader(append(h.Marshal(), make([]byte, 40)...)); err == nil {
		t.Fatal("accepted chunk group out of table range")
	}

	// Implicit-group helpers on a v3 header.
	h3 := groupedHeader()
	h3.Groups = nil
	for i := range h3.Chunks {
		h3.Chunks[i].Group = 0
	}
	g, err := codec.ParseHeader(append(h3.Marshal(), make([]byte, 40)...))
	if err != nil {
		t.Fatal(err)
	}
	if n := max(1, len(g.Groups)); n != 1 {
		t.Fatalf("%d groups on ungrouped stream", n)
	}
	if got := g.GroupChunks(0); len(got) != 4 {
		t.Fatalf("implicit group holds %d chunks", len(got))
	}
}

// TestMarshalLegacyRejectsGroups: the v1/v2 layout has no group table;
// re-serializing a grouped header as legacy must fail, not drop data.
func TestMarshalLegacyRejectsGroups(t *testing.T) {
	h := groupedHeader()
	if _, err := h.MarshalLegacy(codec.VersionLegacy); err == nil {
		t.Fatal("MarshalLegacy accepted a grouped header")
	}
	h.Groups = nil // still has nonzero chunk Group fields
	for i := range h.Chunks {
		h.Chunks[i].EbAbs = 0
	}
	if _, err := h.MarshalLegacy(codec.VersionLegacy); err == nil {
		t.Fatal("MarshalLegacy accepted chunks with group IDs")
	}
}

// TestGroupAggregates pins the chunk-subset accounting helpers.
func TestGroupAggregates(t *testing.T) {
	h := groupedHeader()
	roi := h.GroupChunks(0)
	bg := h.GroupChunks(1)
	if len(roi) != 2 || len(bg) != 2 {
		t.Fatalf("subsets %v %v", roi, bg)
	}
	if got, want := h.GroupAggregateMSE(roi), (2e-10+3e-10)/2; math.Abs(got-want) > 1e-24 {
		t.Fatalf("roi MSE = %g, want %g", got, want)
	}
	if got := h.GroupPayloadBytes(bg); got != 19 {
		t.Fatalf("bg payload = %d", got)
	}
	if got := h.GroupPoints(roi); got != 4*16 {
		t.Fatalf("roi points = %d", got)
	}
	if got := h.GroupAggregateMSE(nil); !math.IsNaN(got) {
		t.Fatalf("empty subset MSE = %g, want NaN", got)
	}
}
