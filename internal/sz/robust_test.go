package sz

import (
	"math/rand"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/stats"
)

// TestDecompressNeverPanicsOnMutation flips bytes throughout a valid
// stream and requires Decompress to fail gracefully (error) or succeed —
// never panic, never allocate unboundedly. Mutants whose header declares
// an enormous field are skipped by the same header check a cautious
// caller would perform.
func TestDecompressNeverPanicsOnMutation(t *testing.T) {
	f := randomField(t, "mutate", 0.05, 40, 40)
	blob, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	const maxPoints = 1 << 24

	tryDecompress := func(mut []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decompress panicked on mutated stream: %v", r)
			}
		}()
		h, err := codec.ParseHeader(mut)
		if err != nil {
			return
		}
		if h.NPoints() > maxPoints {
			return
		}
		_, _, _ = codec.Decompress(mut)
	}

	// Every header byte, plus random payload positions.
	for pos := 0; pos < len(blob); pos++ {
		if pos > 64 && pos%7 != 0 {
			continue // sample the payload, exhaust the header
		}
		for trial := 0; trial < 3; trial++ {
			mut := append([]byte(nil), blob...)
			mut[pos] ^= byte(1 << rng.Intn(8))
			tryDecompress(mut)
		}
	}
}

// TestDecompressNeverPanicsOnTruncation cuts the stream at every sampled
// length.
func TestDecompressNeverPanicsOnTruncation(t *testing.T) {
	f := randomField(t, "cut", 0.05, 30, 30)
	blob, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 3 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at cut %d: %v", cut, r)
				}
			}()
			_, _, _ = codec.Decompress(blob[:cut])
		}()
	}
}

func TestParseHeaderRejectsOverflowDims(t *testing.T) {
	// Construct a header whose dims multiply past the overflow guard.
	h := &codec.Header{
		Codec:     codec.IDLorenzo,
		Precision: field.Float32,
		Name:      "huge",
		Dims:      []int{1 << 40, 1 << 40, 1 << 40},
		EbAbs:     1,
		Capacity:  65536,
		Chunks:    []codec.ChunkInfo{{Rows: 1 << 40, Len: 1}},
	}
	blob := h.Marshal()
	if _, err := codec.ParseHeader(blob); err == nil {
		t.Fatal("expected overflow rejection")
	}
}

// TestRoundTripOnSyntheticDatasetFields runs the bound property over real
// generator output — every field kind of each registry at small scale.
func TestRoundTripOnSyntheticDatasetFields(t *testing.T) {
	for _, ds := range []*datagen.Dataset{
		datagen.NYX([]int{12, 12, 12}),
		datagen.Hurricane([]int{6, 24, 24}),
	} {
		for i := 0; i < ds.NumFields(); i++ {
			f, err := ds.Field(i, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, _, vr := f.ValueRange()
			if vr == 0 {
				continue
			}
			eb := 1e-4 * vr
			blob, _, err := compress(f, Options{ErrorBound: eb, Workers: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, f.Name, err)
			}
			g, _, err := codec.Decompress(blob)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, f.Name, err)
			}
			if d := stats.Compare(f.Data, g.Data); d.MaxErr > eb*(1+1e-12) {
				t.Fatalf("%s/%s: max error %g > %g", ds.Name, f.Name, d.MaxErr, eb)
			}
		}
	}
}

// TestStreamDeterministic: the same field and options must produce a
// byte-identical stream (required for reproducible archives).
func TestStreamDeterministic(t *testing.T) {
	f := randomField(t, "det", 0.05, 40, 50)
	a, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams differ at byte %d", i)
		}
	}
}

// Chunked and unchunked compression must reconstruct to the same bound;
// the reconstructions themselves may differ (predictor restarts), but both
// obey the bound and the stream sizes stay within a few percent.
func TestChunkingCostIsBounded(t *testing.T) {
	f := randomField(t, "chunkcost", 0.02, 128, 64)
	one, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, _, err := compress(f, Options{ErrorBound: 1e-3, ChunkRows: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(four)) > 1.25*float64(len(one)) {
		t.Fatalf("chunking overhead too high: %d vs %d bytes", len(four), len(one))
	}
}
