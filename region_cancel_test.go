package fixedpsnr_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"fixedpsnr"
)

// chunkedStream compresses a multi-chunk field and returns the stream
// plus the original.
func chunkedStream(t *testing.T) ([]byte, *fixedpsnr.Field) {
	t.Helper()
	f := noisyField("cancel", 0.05, 64, 48, 8)
	blob, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, ChunkRows: 8, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob, f
}

// Cancelling mid-decode — a whole-field region or a whole Decode — must
// surface ctx.Err() promptly, and the session's pooled scratch must stay
// reusable: a follow-up decode on the same Decoder returns the exact same
// bytes as a fresh one.
func TestDecodeRegionCancellationMidDecode(t *testing.T) {
	blob, _ := chunkedStream(t)
	off, ext := []int{0, 0, 0}, []int{64, 48, 8}
	for _, c := range []struct {
		name   string
		decode func(*fixedpsnr.Decoder, context.Context) (*fixedpsnr.Field, *fixedpsnr.StreamInfo, error)
	}{
		{"DecodeRegion", func(d *fixedpsnr.Decoder, ctx context.Context) (*fixedpsnr.Field, *fixedpsnr.StreamInfo, error) {
			return d.DecodeRegion(ctx, blob, off, ext)
		}},
		{"Decode", func(d *fixedpsnr.Decoder, ctx context.Context) (*fixedpsnr.Field, *fixedpsnr.StreamInfo, error) {
			return d.Decode(ctx, blob)
		}},
	} {
		dec := fixedpsnr.NewDecoder()
		// The stream has 8 chunks; the countdown trips after a few Err
		// checks, well inside the chunk loop.
		ctx := &countdownCtx{Context: context.Background(), left: 3}
		if _, _, err := c.decode(dec, ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %s err = %v, want context.Canceled", c.name, err)
		}

		// Same Decoder, fresh context: byte-identical to an untouched one.
		got, _, err := c.decode(dec, context.Background())
		if err != nil {
			t.Fatalf("post-cancel %s: %v", c.name, err)
		}
		want, _, err := c.decode(fixedpsnr.NewDecoder(), context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("post-cancel %s diverges at %d: %v != %v (scratch corrupted?)", c.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Archive region extraction must honor cancellation too, and leave the
// reader usable.
func TestArchiveExtractRegionCancellation(t *testing.T) {
	blob, _ := chunkedStream(t)
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
	defer ar.Close()

	ctx := &countdownCtx{Context: context.Background(), left: 3}
	if _, _, err := ar.ExtractRegionAtContext(ctx, 0, []int{0, 0, 0}, []int{64, 48, 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExtractRegionAtContext err = %v, want context.Canceled", err)
	}
	if _, _, err := ar.ExtractRegionAt(0, []int{8, 0, 0}, []int{16, 32, 4}); err != nil {
		t.Fatalf("post-cancel extraction: %v", err)
	}
}

// One ArchiveReader shared by many goroutines issuing region extractions,
// whole-field extractions, and Info lookups — the documented
// concurrent-readers guarantee, checked under -race.
func TestArchiveReaderConcurrentExtract(t *testing.T) {
	blob, orig := chunkedStream(t)
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
	defer ar.Close()

	want, _, err := ar.ExtractRegionAt(0, []int{4, 8, 0}, []int{24, 16, 8})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				switch (g + iter) % 3 {
				case 0:
					got, _, err := ar.ExtractRegionAt(0, []int{4, 8, 0}, []int{24, 16, 8})
					if err != nil {
						errs <- err
						return
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							errs <- errors.New("concurrent region extraction diverged")
							return
						}
					}
				case 1:
					f, _, err := ar.ExtractAt(0)
					if err != nil {
						errs <- err
						return
					}
					if len(f.Data) != len(orig.Data) {
						errs <- errors.New("concurrent full extraction wrong size")
						return
					}
				case 2:
					h, err := ar.Info(0)
					if err != nil {
						errs <- err
						return
					}
					if h.Name != orig.Name {
						errs <- errors.New("concurrent Info wrong header")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRegionEncodeCancellation cancels a region-target encode at every
// ctx check in turn — the chunk loops, each group's pass checks and the
// final assembly — and requires context.Canceled every time.
func TestRegionEncodeCancellation(t *testing.T) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 0)()
	enc := mustEncoder(t, fixedpsnr.WithOptions(fixedpsnr.Options{
		Mode: fixedpsnr.ModeRatio, TargetRatio: 12, Workers: 1, ChunkRows: 4,
		RegionTargets: []fixedpsnr.RegionTarget{{
			Region: fixedpsnr.Region{Off: []int{4, 0, 0}, Ext: []int{4, 64, 64}},
			Mode:   fixedpsnr.ModePSNR, TargetPSNR: 60,
		}},
	}))
	probe := &countingCtx{Context: context.Background()}
	_, res, err := enc.Encode(probe, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions[0].Passes < 2 || res.Regions[1].Passes < 2 {
		t.Fatalf("region passes %d and %d; the test needs both groups to steer", res.Regions[0].Passes, res.Regions[1].Passes)
	}
	checks := int(probe.n.Load())
	for k := range checks {
		ctx := &countdownCtx{Context: context.Background(), left: k}
		if _, _, err := enc.Encode(ctx, f); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d of %d: err = %v, want context.Canceled", k, checks, err)
		}
	}
}
