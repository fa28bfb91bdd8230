package fixedpsnr_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fixedpsnr"
)

// fixtureDecodeDigests pins the exact reconstruction of every committed
// fixture stream: the SHA-256 of its dims and decoded float64 bits
// (decodeDigest). TestStreamFixtures only bounds the decoded PSNR, and
// TestLegacyStreamFixtures compares two decodes that run through the same
// entropy decoder, so neither would notice a decoder change that altered
// a few points. These digests were recorded before the Huffman decode
// loops were rewritten and must never change: a failure here means a
// decoder no longer reproduces what the stream encodes.
var fixtureDecodeDigests = map[string]string{
	"lanes4/otc_bs6.fpsz":            "0689aa33a6795d90761c77853a351226c02ed12eaed4942976c0db094f43fa61",
	"lanes4/otc_psnr.fpsz":           "deab5937a994b1b2c14eed16447bb4245f4833dd1d00f7b01567afa10b8ed643",
	"lanes4/otc_ratio.fpsz":          "35d2aebe4d86b5fd03e21162f3cc9097445070e1b58d43d5ef5bd033b9a30e7a",
	"lanes4/sz_abs.fpsz":             "33bb64146c95c54605afa6280c6e091a0d542da0aa7e4b67dd306bbf7fce4629",
	"lanes4/sz_psnr_calibrated.fpsz": "9fff120cc192f889d57eda767d5065bb83a9f1dfbee196be02b39ce7fbaedb04",
	"lanes4/sz_psnr_plain.fpsz":      "846951f5b4fed41242d595b3275f1677e756e79f16cfd977ff3138c827aed1fc",
	"lanes4/sz_ratio.fpsz":           "7dabbdd74bb07d90b5ba847e029099235f6a84e4d221e2e0f0b1f98a673e5a9e",
	"lanes4/wavelet_psnr.fpsz":       "50f95d194ae368d0eb630fb6bef19cf288e948362047397e1a4657e646536e2d",
	"otc_psnr.fpsz":                  "deab5937a994b1b2c14eed16447bb4245f4833dd1d00f7b01567afa10b8ed643",
	"sz_abs.fpsz":                    "33bb64146c95c54605afa6280c6e091a0d542da0aa7e4b67dd306bbf7fce4629",
	"sz_psnr_calibrated.fpsz":        "9fff120cc192f889d57eda767d5065bb83a9f1dfbee196be02b39ce7fbaedb04",
	"sz_psnr_plain.fpsz":             "846951f5b4fed41242d595b3275f1677e756e79f16cfd977ff3138c827aed1fc",
	"sz_ratio.fpsz":                  "ecc2212f80fe9ee0988d74df5620273755670680f5982ef71b40f26d119e182a",
}

// fixtureStreamPaths lists every committed fixture stream: the frozen
// legacy single-stream fixtures directly under testdata/streams and the
// four-lane fixtures under testdata/streams/lanes4.
func fixtureStreamPaths(tb testing.TB) []string {
	tb.Helper()
	var paths []string
	for _, pattern := range []string{"*.fpsz", "lanes4/*.fpsz"} {
		m, err := filepath.Glob(filepath.Join("testdata", "streams", pattern))
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	if len(paths) != 13 {
		tb.Fatalf("found %d fixture streams, want 13", len(paths))
	}
	return paths
}

// decodeDigest hashes a field's dims and the IEEE-754 bits of every
// decoded value, little-endian.
func decodeDigest(f *fixedpsnr.Field) string {
	h := sha256.New()
	var b [8]byte
	for _, d := range f.Dims {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFixtureDecodeDigests decodes every fixture stream and compares the
// reconstruction bit for bit against its pinned digest. It also decodes
// one interior region, crossing two chunk boundaries on every axis-0
// chunking the fixtures use, and requires it to equal the matching
// slice of the full decode.
func TestFixtureDecodeDigests(t *testing.T) {
	off, ext := []int{9, 5, 2}, []int{33, 50, 11}
	for _, path := range fixtureStreamPaths(t) {
		rel, _ := filepath.Rel(filepath.Join("testdata", "streams"), path)
		name := filepath.ToSlash(rel)
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			full, _, err := fixedpsnr.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeDigest(full)
			if want, ok := fixtureDecodeDigests[name]; !ok || got != want {
				t.Fatalf("decode digest %s, pinned %q", got, want)
			}

			reg, _, err := fixedpsnr.DecompressRegion(blob, off, ext)
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := full.Dims[1], full.Dims[2]
			k := 0
			for i := off[0]; i < off[0]+ext[0]; i++ {
				for j := off[1]; j < off[1]+ext[1]; j++ {
					row := full.Data[(i*d1+j)*d2+off[2] : (i*d1+j)*d2+off[2]+ext[2]]
					for c, v := range row {
						if math.Float64bits(reg.Data[k+c]) != math.Float64bits(v) {
							t.Fatalf("region point (%d,%d,%d) = %x, full decode %x",
								i, j, off[2]+c, math.Float64bits(reg.Data[k+c]), math.Float64bits(v))
						}
					}
					k += ext[2]
				}
			}
			if k != len(reg.Data) {
				t.Fatalf("region has %d points, want %d", len(reg.Data), k)
			}
		})
	}
}
