package plan

import (
	"math"
	"strings"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// chunkedHeader builds a parsed-looking header with the given chunk row
// spans.
func chunkedHeader(rows ...int) *codec.Header {
	h := &codec.Header{Precision: field.Float64, Dims: []int{0, 4}}
	start := 0
	for _, r := range rows {
		h.Chunks = append(h.Chunks, codec.ChunkInfo{Rows: r, RowStart: start})
		start += r
	}
	h.Dims[0] = start
	return h
}

func TestBuildPartitionAssignsByRowIntersection(t *testing.T) {
	h := chunkedHeader(16, 16, 16, 16) // rows [0,64)
	specs := []GroupSpec{
		{Name: "roi", RowLo: 16, RowHi: 30},  // intersects chunk 1 only
		{Name: "tail", RowLo: 47, RowHi: 64}, // last row of chunk 2 + chunk 3
		{Name: "background", Default: true},
	}
	p, err := BuildPartition(h, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 1, 1}
	for ci, g := range p.ChunkGroup {
		if g != want[ci] {
			t.Fatalf("chunk %d assigned to %q, want %q", ci, specs[g].Name, specs[want[ci]].Name)
		}
	}
	if len(p.Subset(0)) != 1 || len(p.Subset(1)) != 2 || len(p.Subset(2)) != 1 {
		t.Fatalf("subsets = %v %v %v", p.Subset(0), p.Subset(1), p.Subset(2))
	}
}

func TestBuildPartitionRejectsStraddledChunk(t *testing.T) {
	h := chunkedHeader(16, 16)
	specs := []GroupSpec{
		{Name: "a", RowLo: 0, RowHi: 4},
		{Name: "b", RowLo: 8, RowHi: 12}, // disjoint windows, same chunk
		{Name: "background", Default: true},
	}
	if _, err := BuildPartition(h, specs); err == nil || !strings.Contains(err.Error(), "claimed by regions") {
		t.Fatalf("err = %v, want straddle rejection", err)
	}
}

func TestBuildPartitionNeedsExactlyOneDefault(t *testing.T) {
	h := chunkedHeader(8)
	if _, err := BuildPartition(h, []GroupSpec{{Name: "a", RowLo: 0, RowHi: 8}}); err == nil {
		t.Fatal("accepted partition without a default group")
	}
	if _, err := BuildPartition(h, []GroupSpec{
		{Name: "a", Default: true}, {Name: "b", Default: true},
	}); err == nil {
		t.Fatal("accepted two default groups")
	}
}

func TestBuildPartitionEmptyDefaultIsFine(t *testing.T) {
	h := chunkedHeader(16, 16)
	p, err := BuildPartition(h, []GroupSpec{
		{Name: "all", RowLo: 0, RowHi: 32},
		{Name: "background", Default: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subset(0)) != 2 || len(p.Subset(1)) != 0 {
		t.Fatalf("subsets = %v %v", p.Subset(0), p.Subset(1))
	}
}

// TestGroupMeasures pins the group-statistic helpers both steering
// targets are built on: point-weighted MSE and payload-based ratio over
// a chunk subset.
func TestGroupMeasures(t *testing.T) {
	h := chunkedHeader(16, 48)
	h.Chunks[0].MSE, h.Chunks[0].Len = 1e-6, 100
	h.Chunks[1].MSE, h.Chunks[1].Len = 4e-6, 300

	pt := NewPSNRTarget(60, 2, Tuning{})
	if got := pt.MeasureGroup(h, []int{0}); got != 1e-6 {
		t.Fatalf("single-chunk MSE = %g", got)
	}
	// (16·1e-6 + 48·4e-6) / 64 rows, uniform inner size.
	if got, want := pt.MeasureGroup(h, []int{0, 1}), (16*1e-6+48*4e-6)/64; math.Abs(got-want) > 1e-20 {
		t.Fatalf("weighted MSE = %g, want %g", got, want)
	}

	rt := NewRatioTarget(8, 64, Tuning{})
	// 16 rows × 4 inner × 8 bytes over 100 payload bytes.
	if got, want := rt.MeasureGroup(h, []int{0}), float64(16*4*8)/100; got != want {
		t.Fatalf("group ratio = %g, want %g", got, want)
	}
}
