package codec_test

import (
	"encoding/binary"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// chunkTableSeed builds a valid version-3 stream (header + zero-filled
// payload space) whose chunk table the fuzzer then mutates.
func chunkTableSeed() []byte {
	h := &codec.Header{
		Codec:      codec.IDLorenzo,
		Precision:  field.Float32,
		Mode:       codec.ModePSNR,
		Name:       "fuzz",
		Dims:       []int{8, 16},
		EbAbs:      1e-3,
		TargetPSNR: 60,
		ValueRange: 2,
		Capacity:   65536,
		Chunks: []codec.ChunkInfo{
			{Rows: 3, Off: 0, Len: 10, Unpredictable: 1, MSE: 1e-8, Min: -1, Max: 1},
			{Rows: 3, Off: 10, Len: 12, MSE: 2e-8, Min: 0, Max: 2},
			{Rows: 2, Off: 22, Len: 8, MSE: 0, Min: 0.5, Max: 0.5},
		},
	}
	return append(h.Marshal(), make([]byte, 30)...)
}

// groupTableSeed builds a valid version-4 stream (grouped header +
// zero-filled payload space) whose group and chunk tables the fuzzers
// mutate.
func groupTableSeed() []byte {
	h := &codec.Header{
		Codec:      codec.IDLorenzo,
		Precision:  field.Float32,
		Mode:       codec.ModeRatio,
		Name:       "fuzz4",
		Dims:       []int{8, 16},
		EbAbs:      1e-3,
		TargetPSNR: 60,
		ValueRange: 2,
		Capacity:   65536,
		Groups: []codec.GroupInfo{
			{Name: "roi0", Mode: codec.ModePSNR, TargetPSNR: 80},
			{Name: "background", Mode: codec.ModeRatio, TargetRatio: 8},
		},
		Chunks: []codec.ChunkInfo{
			{Rows: 3, Off: 0, Len: 10, Unpredictable: 1, EbAbs: 1e-5, MSE: 1e-8, Min: -1, Max: 1, Group: 0},
			{Rows: 3, Off: 10, Len: 12, EbAbs: 1e-3, MSE: 2e-8, Min: 0, Max: 2, Group: 1},
			{Rows: 2, Off: 22, Len: 8, EbAbs: 1e-3, MSE: 0, Min: 0.5, Max: 0.5, Group: 1},
		},
	}
	return append(h.Marshal(), make([]byte, 30)...)
}

// checkParsedChunkInvariants asserts the structural invariants every
// decoder relies on for an accepted header, including the version-4
// group invariants (chunk group IDs inside the group table, table sizes
// bounded).
func checkParsedChunkInvariants(t *testing.T, h *codec.Header, data []byte) {
	t.Helper()
	if len(h.Chunks) == 0 {
		t.Fatal("accepted header with no chunks")
	}
	if len(h.Groups) > codec.MaxGroups {
		t.Fatalf("accepted %d groups", len(h.Groups))
	}
	rows := 0
	prevEnd := 0
	maxEnd := 0
	for i, c := range h.Chunks {
		if c.Rows <= 0 || c.Len < 0 || c.Off < 0 {
			t.Fatalf("chunk %d has non-positive geometry: %+v", i, c)
		}
		if c.RowStart != rows {
			t.Fatalf("chunk %d RowStart = %d, want %d", i, c.RowStart, rows)
		}
		if c.Off < prevEnd {
			t.Fatalf("chunk %d payload overlaps previous (off %d < end %d)", i, c.Off, prevEnd)
		}
		if ngroups := max(1, len(h.Groups)); c.Group < 0 || c.Group >= ngroups {
			t.Fatalf("chunk %d group %d outside table of %d", i, c.Group, ngroups)
		}
		if len(h.Groups) == 0 && c.Group != 0 {
			t.Fatalf("ungrouped stream gave chunk %d group %d", i, c.Group)
		}
		rows += c.Rows
		prevEnd = c.Off + c.Len
		if prevEnd > maxEnd {
			maxEnd = prevEnd
		}
	}
	if rows != h.Dims[0] {
		t.Fatalf("chunk rows sum to %d, want %d", rows, h.Dims[0])
	}
	if h.PayloadOffset()+maxEnd > len(data) {
		t.Fatalf("accepted header declares payloads past the stream end (%d > %d)",
			h.PayloadOffset()+maxEnd, len(data))
	}
}

// FuzzDecodeChunkTable exercises the version-3/4 chunk-index parser:
// whatever the input — truncated tables, overlapping or out-of-bounds
// chunk entries, varint garbage — ParseHeader must either reject it with
// an error or return a header whose chunk table satisfies every
// invariant the decoders rely on. It must never panic.
func FuzzDecodeChunkTable(f *testing.F) {
	seed := chunkTableSeed()
	f.Add(seed)
	f.Add(groupTableSeed())
	// Truncations through the chunk table region.
	for cut := len(seed) - 30; cut > len(seed)-90 && cut > 0; cut -= 7 {
		f.Add(append([]byte(nil), seed[:cut]...))
	}
	// Overlapping chunks: bump the second entry's offset below the first
	// entry's end (the table serializes rows, off, len, ... per entry;
	// mutating bytes is enough to land in the interesting space).
	for i := len(seed) - 120; i < len(seed)-30 && i > 0; i += 5 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x7F
		f.Add(mut)
	}
	// Out-of-bounds: declare a huge payload length.
	huge := append([]byte(nil), seed...)
	huge = append(huge[:len(huge)-40], binary.AppendUvarint(nil, 1<<45)...)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := codec.ParseHeader(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if h.Codec == codec.IDConstant {
			return
		}
		// Accepted headers must satisfy the decoders' invariants.
		checkParsedChunkInvariants(t, h, data)
	})
}

// FuzzDecodeGroupTable aims the fuzzer at the version-4 group table and
// its per-chunk group references specifically: seeds mutate the group
// count, names, descriptors, and the chunk entries' trailing group IDs.
// ParseHeader must reject or return a header whose group invariants hold
// — a chunk pointing outside the group table would panic every grouped
// consumer downstream.
func FuzzDecodeGroupTable(f *testing.F) {
	seed := groupTableSeed()
	f.Add(seed)
	// Truncations through the group-table region (it sits between the
	// capacity varint and the chunk table, well inside the header).
	for cut := len(seed) - 30; cut > 40 && cut > len(seed)-160; cut -= 11 {
		f.Add(append([]byte(nil), seed[:cut]...))
	}
	// Point mutations across the whole header: group count bumps, name
	// length corruption, mode bytes, chunk group IDs past the table.
	for i := 5; i < len(seed)-30; i += 3 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
	// A stream that declares a huge group table.
	huge := append([]byte(nil), seed[:44]...)
	huge = append(huge, binary.AppendUvarint(nil, 1<<40)...)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := codec.ParseHeader(data)
		if err != nil {
			return
		}
		if h.Codec == codec.IDConstant {
			return
		}
		checkParsedChunkInvariants(t, h, data)
		// Re-marshaling an accepted grouped header must reproduce a
		// parseable header with the same group structure.
		if len(h.Groups) > 0 {
			re, err := codec.ParseHeaderPrefix(h.Marshal())
			if err != nil {
				t.Fatalf("re-marshaled accepted header rejected: %v", err)
			}
			if len(re.Groups) != len(h.Groups) {
				t.Fatalf("groups %d -> %d across re-marshal", len(h.Groups), len(re.Groups))
			}
			for ci := range re.Chunks {
				if re.Chunks[ci].Group != h.Chunks[ci].Group {
					t.Fatalf("chunk %d group changed across re-marshal", ci)
				}
			}
		}
	})
}
