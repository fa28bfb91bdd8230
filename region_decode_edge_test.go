package fixedpsnr_test

import (
	"bytes"
	"context"
	"testing"

	"fixedpsnr"
)

// edgeStreams builds one stream per (pipeline × container version) the
// region decoders must serve: plain v3 chunked streams from both
// pipelines and v4 grouped streams (a region target forces the group
// table), all with 16-row chunks over a 64×64×16 field so chunk
// boundaries sit at row multiples of 16.
func edgeStreams(t *testing.T, f *fixedpsnr.Field) map[string][]byte {
	t.Helper()
	streams := map[string][]byte{}
	mk := func(name string, opt fixedpsnr.Options) {
		blob, _, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		streams[name] = blob
	}
	roi := fixedpsnr.RegionTarget{
		Region:     fixedpsnr.Region{Off: []int{16, 0, 0}, Ext: []int{16, 64, 16}},
		Mode:       fixedpsnr.ModePSNR,
		TargetPSNR: 75,
	}
	mk("sz_v3", fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	})
	mk("otc_v3", fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Compressor: fixedpsnr.CompressorTransform,
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	})
	mk("sz_v4", fixedpsnr.Options{
		Mode: fixedpsnr.ModeRatio, TargetRatio: 6,
		RegionTargets: []fixedpsnr.RegionTarget{roi},
		ChunkPoints:   fixedpsnr.MinChunkPoints, Workers: 2,
	})
	// otc cannot steer PSNR per group (no measured MSE) but still writes
	// a grouped container; the ROI rides a ratio target instead.
	mk("otc_v4", fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Compressor: fixedpsnr.CompressorTransform,
		RegionTargets: []fixedpsnr.RegionTarget{{
			Region: roi.Region, Mode: fixedpsnr.ModeRatio, TargetRatio: 4,
		}},
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	})
	for name, blob := range streams {
		h, err := fixedpsnr.Inspect(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantVer := 3
		if name == "sz_v4" || name == "otc_v4" {
			wantVer = 4
		}
		if h.Version != uint8(wantVer) {
			t.Fatalf("%s: stream version %d, want %d", name, h.Version, wantVer)
		}
	}
	return streams
}

// TestDecodeRegionChunkBoundaryAbutment: regions that exactly abut chunk
// boundaries — start on one, end on one, cover exactly one chunk, and
// span a boundary by one row on each side — must decode byte-identically
// to slicing a full decode, on v3 and v4 streams from both pipelines.
func TestDecodeRegionChunkBoundaryAbutment(t *testing.T) {
	f := noisyField("edge", 0.05, 64, 64, 16)
	dec := fixedpsnr.NewDecoder()
	ctx := context.Background()
	// 16-row chunks: boundaries at rows 16, 32, 48.
	cases := [][2][]int{
		{{16, 0, 0}, {16, 64, 16}}, // exactly chunk 1
		{{0, 0, 0}, {16, 64, 16}},  // exactly chunk 0 (stream start)
		{{48, 0, 0}, {16, 64, 16}}, // exactly the last chunk
		{{15, 0, 0}, {2, 64, 16}},  // one row each side of a boundary
		{{16, 0, 0}, {32, 64, 16}}, // two whole chunks
		{{31, 5, 3}, {2, 20, 9}},   // boundary-straddling interior block
		{{63, 63, 15}, {1, 1, 1}},  // single far-corner point
	}
	for name, blob := range edgeStreams(t, f) {
		full, _, err := dec.Decode(ctx, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rc := range cases {
			off, ext := rc[0], rc[1]
			got, _, err := dec.DecodeRegion(ctx, blob, off, ext)
			if err != nil {
				t.Fatalf("%s %v+%v: %v", name, off, ext, err)
			}
			want, err := full.Slice(off, ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s %v+%v: differs from full decode at %d", name, off, ext, i)
				}
			}
		}
	}
}

// TestDecodeRegionZeroExtent: zero- and negative-extent regions must be
// rejected loudly by both the stream and the archive pipelines, on v3
// and v4 streams — not decoded as empty fields.
func TestDecodeRegionZeroExtent(t *testing.T) {
	f := noisyField("zero", 0.05, 64, 64, 16)
	dec := fixedpsnr.NewDecoder()
	ctx := context.Background()
	bad := [][2][]int{
		{{0, 0, 0}, {0, 64, 16}},  // zero rows
		{{0, 0, 0}, {16, 0, 16}},  // zero inner extent
		{{8, 8, 8}, {1, 1, 0}},    // zero fastest extent
		{{0, 0, 0}, {-1, 64, 16}}, // negative
	}
	for name, blob := range edgeStreams(t, f) {
		// Archive round trip: the same stream behind ExtractRegion.
		var buf bytes.Buffer
		aw, err := fixedpsnr.NewArchiveWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := aw.WriteStream(blob); err != nil {
			t.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		ar, err := fixedpsnr.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range bad {
			off, ext := rc[0], rc[1]
			if _, _, err := dec.DecodeRegion(ctx, blob, off, ext); err == nil {
				t.Errorf("%s: DecodeRegion accepted extent %v", name, ext)
			}
			if _, _, err := fixedpsnr.DecompressRegion(blob, off, ext); err == nil {
				t.Errorf("%s: DecompressRegion accepted extent %v", name, ext)
			}
			if _, _, err := ar.ExtractRegion(f.Name, off, ext); err == nil {
				t.Errorf("%s: ExtractRegion accepted extent %v", name, ext)
			}
		}
	}
}

// TestExtractRegionGroupedArchive: a v4 grouped stream inside an archive
// serves chunk-granular region reads exactly like a v3 stream — the ROI
// chunks come back byte-identical to the full reconstruction.
func TestExtractRegionGroupedArchive(t *testing.T) {
	f := noisyField("argrp", 0.05, 64, 64, 16)
	blob, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode: fixedpsnr.ModeRatio, TargetRatio: 6,
		RegionTargets: []fixedpsnr.RegionTarget{{
			Region:     fixedpsnr.Region{Off: []int{16, 0, 0}, Ext: []int{16, 64, 16}},
			Mode:       fixedpsnr.ModePSNR,
			TargetPSNR: 75,
		}},
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.WriteStream(blob); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := fixedpsnr.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range [][2][]int{
		{{16, 0, 0}, {16, 64, 16}}, // exactly the ROI chunk
		{{15, 0, 0}, {18, 64, 16}}, // ROI plus one row each side
		{{0, 10, 2}, {64, 4, 8}},   // column slab across all groups
	} {
		off, ext := rc[0], rc[1]
		got, h, err := ar.ExtractRegion("argrp", off, ext)
		if err != nil {
			t.Fatalf("%v+%v: %v", off, ext, err)
		}
		if len(h.Groups) != 2 {
			t.Fatalf("extracted header lost the group table: %+v", h.Groups)
		}
		want, err := full.Slice(off, ext)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%v+%v: differs at %d", off, ext, i)
			}
		}
	}
}
