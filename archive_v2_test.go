package fixedpsnr_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
)

// compressSeparately compresses each field to its own stream.
func compressSeparately(t *testing.T, fields []*fixedpsnr.Field, opt fixedpsnr.Options) [][]byte {
	t.Helper()
	streams := make([][]byte, len(fields))
	for i, f := range fields {
		blob, _, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatalf("field %q: %v", f.Name, err)
		}
		streams[i] = blob
	}
	return streams
}

// buildV1Archive assembles a legacy (version 1) archive blob from streams.
func buildV1Archive(streams [][]byte) []byte {
	out := []byte{'F', 'P', 'S', 'A', 1}
	out = binary.AppendUvarint(out, uint64(len(streams)))
	for _, s := range streams {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// TestArchiveWriterReaderRoundTrip is the streaming acceptance check: a
// round-trip through NewArchiveWriter/OpenArchive must match the
// CompressFields/DecompressArchive output field-for-field.
func TestArchiveWriterReaderRoundTrip(t *testing.T) {
	fields := archiveFields(t)
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 60}

	blob, _, err := fixedpsnr.CompressFields(fields, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := fixedpsnr.DecompressArchive(blob)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perField := opt
	perField.Workers = 1 // match CompressFields' per-field determinism
	for _, f := range fields {
		if _, err := aw.WriteField(f, perField); err != nil {
			t.Fatalf("WriteField %q: %v", f.Name, err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Len() != len(fields) || ar.Version() != 2 {
		t.Fatalf("reader sees %d entries, version %d", ar.Len(), ar.Version())
	}
	for i, f := range fields {
		g, h, err := ar.ExtractAt(i)
		if err != nil {
			t.Fatalf("ExtractAt(%d): %v", i, err)
		}
		if g.Name != f.Name || h.Name != f.Name {
			t.Fatalf("entry %d: name %q != %q", i, g.Name, f.Name)
		}
		if !g.SameShape(batch[i]) {
			t.Fatalf("entry %d: shape mismatch vs batch path", i)
		}
		for j := range g.Data {
			if g.Data[j] != batch[i].Data[j] {
				t.Fatalf("entry %d (%q): value %d differs between streaming and batch paths", i, f.Name, j)
			}
		}
	}

	// The streamed bytes must themselves decompress through the blob API.
	streamed, err := fixedpsnr.DecompressArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(fields) {
		t.Fatalf("blob API sees %d entries in streamed archive", len(streamed))
	}
}

// TestExtractFieldParsesOnlyRequestedEntry is the index acceptance check:
// extracting one field from a v2 archive must parse the tail index plus
// that entry only — the header parse count cannot scale with the number
// of uninvolved entries.
func TestExtractFieldParsesOnlyRequestedEntry(t *testing.T) {
	fields := archiveFields(t)
	if len(fields) < 4 {
		t.Fatalf("want several fields, got %d", len(fields))
	}
	blob, _, err := fixedpsnr.CompressFields(fields, fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	name := fields[len(fields)-1].Name

	before := codec.HeaderParses()
	if _, _, err := fixedpsnr.ExtractField(blob, name); err != nil {
		t.Fatal(err)
	}
	parses := codec.HeaderParses() - before
	// One parse to route through the registry plus one inside the codec's
	// own Decompress. Anything proportional to len(fields) means the
	// index is being ignored.
	if parses > 2 {
		t.Fatalf("ExtractField parsed %d headers for one of %d entries", parses, len(fields))
	}
}

// TestExtractIgnoresCorruptSiblings corrupts every entry except one and
// extracts the survivor: proof that v2 extraction never reads sibling
// payloads.
func TestExtractIgnoresCorruptSiblings(t *testing.T) {
	fields := archiveFields(t)
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, Workers: 1}
	streams := compressSeparately(t, fields, opt)

	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	keep := 1 // entry index to leave intact
	offsets := make([]int64, len(streams))
	off := int64(5)
	for i, s := range streams {
		offsets[i] = off
		if err := aw.WriteStream(s); err != nil {
			t.Fatal(err)
		}
		off += int64(len(s))
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i, s := range streams {
		if i == keep {
			continue
		}
		for j := int64(0); j < int64(len(s)); j++ {
			blob[offsets[i]+j] ^= 0xFF
		}
	}

	g, _, err := fixedpsnr.ExtractField(blob, fields[keep].Name)
	if err != nil {
		t.Fatalf("extraction of intact entry failed: %v", err)
	}
	if g.Name != fields[keep].Name {
		t.Fatalf("extracted %q", g.Name)
	}
	if _, _, err := fixedpsnr.ExtractField(blob, fields[keep+1].Name); err == nil {
		t.Fatal("extraction of corrupted entry unexpectedly succeeded")
	}
}

// TestDecompressAllNamesEntryOnce corrupts the middle of one entry's
// first chunk payload: DecompressAll's error must name that entry, by
// index and name, exactly once.
func TestDecompressAllNamesEntryOnce(t *testing.T) {
	fields := archiveFields(t)[:3]
	streams := compressSeparately(t, fields, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, Workers: 1})
	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 1
	off := 5 // the archive's magic and version byte
	for i, s := range streams {
		if i == bad {
			h, err := fixedpsnr.Inspect(s)
			if err != nil {
				t.Fatal(err)
			}
			off += h.PayloadOffset() + h.Chunks[0].Off + h.Chunks[0].Len/2
		} else if i < bad {
			off += len(s)
		}
		if err := aw.WriteStream(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for j := range 64 {
		blob[off+j] ^= 0xFF
	}
	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ar.DecompressAll()
	if err == nil {
		t.Fatal("a corrupted entry decoded without error")
	}
	msg := err.Error()
	if n := strings.Count(msg, "entry "); n != 1 || !strings.Contains(msg, fmt.Sprintf("entry %d (%q)", bad, fields[bad].Name)) {
		t.Fatalf("error names an entry %d times, want entry %d (%q) once: %v", n, bad, fields[bad].Name, err)
	}
}

// TestArchiveV1ReadCompat: v1 blobs (length-prefixed, no index) written
// by the previous format stay readable through every blob API.
func TestArchiveV1ReadCompat(t *testing.T) {
	fields := archiveFields(t)
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Workers: 1}
	streams := compressSeparately(t, fields, opt)
	v1 := buildV1Archive(streams)

	out, err := fixedpsnr.DecompressArchive(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(fields) {
		t.Fatalf("got %d fields", len(out))
	}
	for i, f := range fields {
		if out[i].Name != f.Name {
			t.Fatalf("entry %d: %q != %q", i, out[i].Name, f.Name)
		}
	}

	infos, err := fixedpsnr.ArchiveInfo(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(fields) {
		t.Fatalf("got %d infos", len(infos))
	}

	g, _, err := fixedpsnr.ExtractField(v1, fields[2].Name)
	if err != nil {
		t.Fatal(err)
	}
	d := fixedpsnr.CompareFields(fields[2], g)
	if math.IsNaN(d.PSNR) || d.PSNR < 58 {
		t.Fatalf("v1 extract PSNR %g", d.PSNR)
	}

	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(v1), int64(len(v1)))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Version() != 1 || ar.Len() != len(fields) {
		t.Fatalf("v1 reader: version %d, %d entries", ar.Version(), ar.Len())
	}
}

// TestArchiveV2CorruptionTable walks the v2 index/footer corruption
// space; every mutation must produce an error, never a panic or a bogus
// success.
func TestArchiveV2CorruptionTable(t *testing.T) {
	fields := archiveFields(t)
	blob, _, err := fixedpsnr.CompressFields(fields, fixedpsnr.Options{
		Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	footerStart := len(blob) - 12

	mutate := func(m func(b []byte) []byte) []byte {
		c := append([]byte{}, blob...)
		return m(c)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"too short", []byte("FPSA")},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 9; return b })},
		{"truncated half", blob[:len(blob)/2]},
		{"missing footer magic", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b })},
		{"index offset beyond size", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[footerStart:], uint64(len(b)))
			return b
		})},
		{"index offset before data", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[footerStart:], 0)
			return b
		})},
		{"index magic smashed", mutate(func(b []byte) []byte {
			idxOff := binary.LittleEndian.Uint64(b[footerStart:])
			b[idxOff] = 'X'
			return b
		})},
		{"index count unreasonable", mutate(func(b []byte) []byte {
			idxOff := binary.LittleEndian.Uint64(b[footerStart:])
			// Overwrite the count varint region with a huge value; the
			// remaining index bytes become garbage, which is the point.
			huge := binary.AppendUvarint(nil, 1<<30)
			copy(b[idxOff+4:], huge)
			return b
		})},
		{"index truncated", append(append([]byte{}, blob[:footerStart-3]...), blob[footerStart:]...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := fixedpsnr.DecompressArchive(tc.blob); err == nil {
				t.Fatalf("DecompressArchive accepted %s", tc.name)
			}
			if _, err := fixedpsnr.ArchiveInfo(tc.blob); err == nil {
				t.Fatalf("ArchiveInfo accepted %s", tc.name)
			}
			if _, _, err := fixedpsnr.ExtractField(tc.blob, "U"); err == nil {
				t.Fatalf("ExtractField accepted %s", tc.name)
			}
		})
	}
}

// TestArchiveV2IndexOffsetOverflow hand-builds a v2 archive whose index
// entry offset is ≥ 2^63: the open-time validation must reject it rather
// than let the signed conversion smuggle it past the range check.
func TestArchiveV2IndexOffsetOverflow(t *testing.T) {
	payload := []byte("entrybytes")
	blob := []byte{'F', 'P', 'S', 'A', 2}
	blob = append(blob, payload...)
	idxOff := uint64(len(blob))
	blob = append(blob, 'F', 'P', 'S', 'I')
	blob = binary.AppendUvarint(blob, 1)                 // count
	blob = binary.AppendUvarint(blob, 1)                 // name length
	blob = append(blob, 'x')                             // name
	blob = binary.AppendUvarint(blob, math.MaxUint64-15) // offset ≥ 2^63
	blob = binary.AppendUvarint(blob, 1)                 // length
	var footer [12]byte
	binary.LittleEndian.PutUint64(footer[:8], idxOff)
	copy(footer[8:], "FPSE")
	blob = append(blob, footer[:]...)

	if _, err := fixedpsnr.OpenArchive(bytes.NewReader(blob), int64(len(blob))); err == nil {
		t.Fatal("OpenArchive accepted an index offset ≥ 2^63")
	}
}

// failAfterWriter accepts the first n writes, then fails forever.
type failAfterWriter struct{ writes, n int }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, fmt.Errorf("synthetic write failure")
	}
	return len(p), nil
}

// TestArchiveWriterCloseErrorIsSticky: a Close that fails to write the
// index must keep failing on repeated calls instead of reporting success.
func TestArchiveWriterCloseErrorIsSticky(t *testing.T) {
	f := fixedpsnr.NewField("s", fixedpsnr.Float64, 16)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	w := &failAfterWriter{n: 2} // preamble + one entry succeed
	aw, err := fixedpsnr.NewArchiveWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteField(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3}); err != nil {
		t.Fatal(err)
	}
	first := aw.Close()
	if first == nil {
		t.Fatal("Close succeeded despite index write failure")
	}
	if again := aw.Close(); again == nil || again.Error() != first.Error() {
		t.Fatalf("second Close = %v, want the original failure %v", again, first)
	}
}

// TestArchiveV1CorruptionTable covers the legacy scanner: truncated
// count, oversized entry lengths, absurd counts.
func TestArchiveV1CorruptionTable(t *testing.T) {
	f := fixedpsnr.NewField("x", fixedpsnr.Float64, 32)
	for i := range f.Data {
		f.Data[i] = float64(i % 7)
	}
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	good := buildV1Archive([][]byte{stream})

	overlapping := []byte{'F', 'P', 'S', 'A', 1}
	overlapping = binary.AppendUvarint(overlapping, 2)
	// First entry claims more bytes than remain after the second's prefix.
	overlapping = binary.AppendUvarint(overlapping, uint64(len(stream)+100))
	overlapping = append(overlapping, stream...)

	cases := []struct {
		name string
		blob []byte
	}{
		{"truncated count", []byte{'F', 'P', 'S', 'A', 1}},
		{"unreasonable count", append([]byte{'F', 'P', 'S', 'A', 1}, binary.AppendUvarint(nil, 1<<30)...)},
		{"entry length past end", overlapping},
		{"truncated entry", good[:len(good)-5]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := fixedpsnr.DecompressArchive(tc.blob); err == nil {
				t.Fatalf("DecompressArchive accepted %s", tc.name)
			}
			if _, err := fixedpsnr.ArchiveInfo(tc.blob); err == nil {
				t.Fatalf("ArchiveInfo accepted %s", tc.name)
			}
		})
	}
}

// FuzzOpenArchive shakes both archive parsers (v1 scanner and v2 index):
// arbitrary bytes must produce an error or a well-formed reader, never a
// panic.
func FuzzOpenArchive(f *testing.F) {
	fld := fixedpsnr.NewField("fz", fixedpsnr.Float64, 16)
	for i := range fld.Data {
		fld.Data[i] = float64(i)
	}
	stream, _, err := fixedpsnr.Compress(fld, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-2})
	if err != nil {
		f.Fatal(err)
	}
	v1 := buildV1Archive([][]byte{stream})
	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	if err := aw.WriteStream(stream); err != nil {
		f.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(buf.Bytes())
	f.Add([]byte("FPSA"))
	f.Add([]byte{'F', 'P', 'S', 'A', 2, 0, 0, 0, 0, 0, 0, 0, 0, 'F', 'P', 'S', 'E'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := fixedpsnr.OpenArchive(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for i := 0; i < ar.Len(); i++ {
			ar.Info(i)      //nolint:errcheck — looking for panics only
			ar.ExtractAt(i) //nolint:errcheck
		}
	})
}

// The v2 tail index maps names to offsets, so a duplicate field name
// would silently shadow the earlier entry; the writer must reject it at
// write time instead.
func TestArchiveWriterRejectsDuplicateNames(t *testing.T) {
	f := waveField("dup", 24, 24)
	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3}
	if _, err := aw.WriteField(f, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.WriteField(f, opt); err == nil || !strings.Contains(err.Error(), "already has a field") {
		t.Fatalf("duplicate WriteField err = %v", err)
	}
	stream, _, err := fixedpsnr.Compress(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.WriteStream(stream); err == nil {
		t.Fatal("duplicate WriteStream accepted")
	}
	// The writer stays usable: a fresh name lands fine and the archive
	// closes with exactly the non-duplicate entries.
	g := waveField("dup2", 24, 24)
	if _, err := aw.WriteField(g, opt); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Len() != 2 {
		t.Fatalf("archive has %d entries, want 2", ar.Len())
	}
}

// CompressFields inherits the duplicate-name rejection.
func TestCompressFieldsRejectsDuplicateNames(t *testing.T) {
	f := waveField("twin", 16, 16)
	g := waveField("twin", 16, 16)
	_, _, err := fixedpsnr.CompressFields([]*fixedpsnr.Field{f, g},
		fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3})
	if err == nil {
		t.Fatal("duplicate field names accepted")
	}
}

// An ArchiveWriter riding an Encoder session must produce the same
// archive as the one-shot WriteField path, and a cancelled context must
// leave the writer usable.
func TestArchiveWriterWriteFieldEncoder(t *testing.T) {
	fields := []*fixedpsnr.Field{waveField("A", 30, 40), waveField("B", 20, 50)}
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 70, Workers: 1}

	var oneShot bytes.Buffer
	aw1, err := fixedpsnr.NewArchiveWriter(&oneShot)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if _, err := aw1.WriteField(f, opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw1.Close(); err != nil {
		t.Fatal(err)
	}

	enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	var session bytes.Buffer
	aw2, err := fixedpsnr.NewArchiveWriter(&session)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aw2.WriteFieldEncoder(cancelled, enc, fields[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WriteFieldEncoder err = %v", err)
	}
	for _, f := range fields {
		if _, err := aw2.WriteFieldEncoder(context.Background(), enc, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneShot.Bytes(), session.Bytes()) {
		t.Fatal("session-built archive differs from one-shot archive")
	}
}

// TestExtractAtDecodesFromScratch pins ExtractAt to the reader's pooled
// decode scratch: a warm extract of a 32×64×64 entry in eight chunks
// allocates little beyond the entry's bytes and the decoded field.
// Decoding each chunk with fresh buffers allocated about twice the field.
func TestExtractAtDecodesFromScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	f := waveField("T", 32, 64, 64)
	blob, _, err := fixedpsnr.CompressFields([]*fixedpsnr.Field{f}, fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := fixedpsnr.OpenArchive(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// The scratch pools are sync.Pools, which cache per P and are emptied
	// by GC: on one P with GC paused, the measured calls reuse what the
	// warm-up call pooled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, _, err := ar.ExtractAt(0); err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gcPercent := debug.SetGCPercent(-1)
	for range runs {
		if _, _, err := ar.ExtractAt(0); err != nil {
			t.Fatal(err)
		}
	}
	debug.SetGCPercent(gcPercent)
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	fieldBytes := uint64(8 * f.Len())
	t.Logf("warm ExtractAt: %d bytes/call for a %d-byte field and a %d-byte archive", perCall, fieldBytes, len(blob))
	if perCall > fieldBytes*3/2 {
		t.Fatalf("warm ExtractAt allocates %d bytes per call, want <= %d (1.5x the decoded field)", perCall, fieldBytes*3/2)
	}
}
