package fixedpsnr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fixedpsnr"
)

// mixedVersionStreams builds one stream per stream-format version: a v1
// and a v2 legacy re-serialization plus a natural chunked v3 stream,
// each under its own field name.
func mixedVersionStreams(t *testing.T) (streams [][]byte, fields []*fixedpsnr.Field) {
	t.Helper()
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, ChunkRows: 8, Workers: 2}
	for _, spec := range []struct {
		name    string
		version byte // 0 = keep the native v3 stream
	}{
		{"legacy-v1", 1},
		{"legacy-v2", 2},
		{"chunked-v3", 0},
	} {
		f := noisyField(spec.name, 0.05, 24, 16, 8)
		blob, _, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if spec.version != 0 {
			blob = legacyStream(t, blob, spec.version)
		}
		streams = append(streams, blob)
		fields = append(fields, f)
	}
	return streams, fields
}

// An archive can mix v1, v2, and chunked v3 streams; ExtractField and
// ArchiveInfo must handle every entry regardless of its stream version.
func TestArchiveCrossVersionStreams(t *testing.T) {
	streams, fields := mixedVersionStreams(t)

	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		if err := aw.WriteStream(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	archives := map[string][]byte{
		"v2-archive": buf.Bytes(),
		"v1-archive": buildV1Archive(streams),
	}

	for aname, blob := range archives {
		infos, err := fixedpsnr.ArchiveInfo(blob)
		if err != nil {
			t.Fatalf("%s: %v", aname, err)
		}
		if len(infos) != 3 {
			t.Fatalf("%s: %d entries", aname, len(infos))
		}
		wantVersions := []uint8{1, 2, 3}
		for i, info := range infos {
			if info.Name != fields[i].Name {
				t.Fatalf("%s: entry %d named %q", aname, i, info.Name)
			}
			if info.Version != wantVersions[i] {
				t.Fatalf("%s: entry %d stream version %d, want %d", aname, i, info.Version, wantVersions[i])
			}
			if len(info.Chunks) == 0 {
				t.Fatalf("%s: entry %d has no chunk table", aname, i)
			}
		}
		for i, f := range fields {
			g, h, err := fixedpsnr.ExtractField(blob, f.Name)
			if err != nil {
				t.Fatalf("%s: extract %q: %v", aname, f.Name, err)
			}
			if h.Version != wantVersions[i] {
				t.Fatalf("%s: %q extracted as version %d", aname, f.Name, h.Version)
			}
			d := fixedpsnr.CompareFields(f, g)
			if d.MaxErr > 1e-3*(1+1e-12) {
				t.Fatalf("%s: %q max error %g", aname, f.Name, d.MaxErr)
			}
		}
	}
}

// Region extraction works across stream versions in one archive — the
// chunked v3 entry and the legacy entries alike through chunk-granular
// reads — and byte-matches the slice of a full extract. The
// file-backed path exercises the ReadAt-based chunk fetches.
func TestArchiveExtractRegionCrossVersion(t *testing.T) {
	streams, fields := mixedVersionStreams(t)
	var buf bytes.Buffer
	aw, err := fixedpsnr.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		if err := aw.WriteStream(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mixed.fpsa")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	off, ext := []int{5, 2, 1}, []int{10, 8, 4}
	check := func(extract func(name string, off, ext []int) (*fixedpsnr.Field, *fixedpsnr.StreamInfo, error)) {
		t.Helper()
		for _, f := range fields {
			got, _, err := extract(f.Name, off, ext)
			if err != nil {
				t.Fatalf("%q: %v", f.Name, err)
			}
			full, _, err := fixedpsnr.ExtractField(buf.Bytes(), f.Name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Slice(off, ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%q: region differs at %d", f.Name, i)
				}
			}
		}
	}

	// In-memory blob path.
	check(func(name string, off, ext []int) (*fixedpsnr.Field, *fixedpsnr.StreamInfo, error) {
		return fixedpsnr.ExtractRegion(buf.Bytes(), name, off, ext)
	})
	// File-backed path: chunk payloads are fetched by ReadAt.
	ar, err := fixedpsnr.OpenArchiveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	check(ar.ExtractRegion)

	if _, _, err := ar.ExtractRegion("missing", off, ext); err == nil {
		t.Fatal("region extract of a missing field succeeded")
	}
	if _, _, err := ar.ExtractRegion(fields[2].Name, []int{0, 0, 0}, []int{99, 1, 1}); err == nil {
		t.Fatal("oversized region accepted")
	}
}
