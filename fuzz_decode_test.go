package fixedpsnr_test

import (
	"os"
	"testing"

	"fixedpsnr"
)

// maxFuzzStream caps the whole-stream fuzzers' inputs: every fixture
// seed fits, and one execution stays in the milliseconds.
const maxFuzzStream = 128 << 10

// addFixtureSeeds seeds f with every committed fixture stream, legacy
// and four-lane, through add.
func addFixtureSeeds(f *testing.F, add func(blob []byte)) {
	for _, path := range fixtureStreamPaths(f) {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		add(blob)
	}
}

// FuzzDecompress feeds arbitrary bytes through Decompress end to end:
// header, chunk table, payload dispatch, entropy decode and
// reconstruction. Every input must return an error or a field, never
// panic. The fixture seeds are 33–73 KB, so bound minimization when
// fuzzing (-fuzzminimizetime 1s).
func FuzzDecompress(f *testing.F) {
	addFixtureSeeds(f, func(blob []byte) { f.Add(blob) })
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzStream {
			data = data[:maxFuzzStream]
		}
		fixedpsnr.Decompress(data)
	})
}

// FuzzDecodeRegion feeds arbitrary bytes and a fuzzer-chosen region —
// rank%4 axes of off/ext, negative and oversized values included —
// through DecompressRegion. Every input must return an error or a
// field, never panic.
func FuzzDecodeRegion(f *testing.F) {
	addFixtureSeeds(f, func(blob []byte) {
		f.Add(blob, uint8(3), int32(9), int32(5), int32(2), int32(33), int32(50), int32(11))
	})
	f.Fuzz(func(t *testing.T, data []byte, rank uint8, o0, o1, o2, e0, e1, e2 int32) {
		if len(data) > maxFuzzStream {
			data = data[:maxFuzzStream]
		}
		n := int(rank % 4)
		off := []int{int(o0), int(o1), int(o2)}[:n]
		ext := []int{int(e0), int(e1), int(e2)}[:n]
		fixedpsnr.DecompressRegion(data, off, ext)
	})
}
