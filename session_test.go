package fixedpsnr_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"fixedpsnr"
)

// sessionOpts is the reference configuration the session tests share.
func sessionOpts() []fixedpsnr.Option {
	return []fixedpsnr.Option{
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(80),
		fixedpsnr.WithWorkers(1),
	}
}

func mustEncoder(t *testing.T, opts ...fixedpsnr.Option) *fixedpsnr.Encoder {
	t.Helper()
	enc, err := fixedpsnr.NewEncoder(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// A session Encoder must produce byte-identical streams to the one-shot
// Compress under the same options — buffer reuse is invisible in the
// output.
func TestEncoderMatchesOneShotByteForByte(t *testing.T) {
	f := waveField("session", 120, 140)
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 80, Workers: 1}
	want, wantRes, err := fixedpsnr.Compress(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc := mustEncoder(t, fixedpsnr.WithOptions(opt))
	for pass := 0; pass < 3; pass++ { // repeated calls exercise warm pools
		got, res, err := enc.Encode(context.Background(), f)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: session stream differs from one-shot stream", pass)
		}
		if res.CompressedBytes != wantRes.CompressedBytes || res.EbAbs != wantRes.EbAbs {
			t.Fatalf("pass %d: result mismatch: %+v vs %+v", pass, res, wantRes)
		}
	}
}

func TestEncodeToAndDecodeFromRoundTrip(t *testing.T) {
	f := waveField("streamio", 90, 110)
	enc := mustEncoder(t, sessionOpts()...)
	ctx := context.Background()

	want, _, err := enc.Encode(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := enc.EncodeTo(ctx, &buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("EncodeTo bytes differ from Encode bytes")
	}
	if res.CompressedBytes != len(want) {
		t.Fatalf("result reports %d bytes, wrote %d", res.CompressedBytes, len(want))
	}

	dec := fixedpsnr.NewDecoder()
	g, info, err := dec.DecodeFrom(ctx, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != f.Name {
		t.Fatalf("header name %q", info.Name)
	}
	h, _, err := dec.Decode(ctx, want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if g.Data[i] != h.Data[i] {
			t.Fatalf("DecodeFrom and Decode disagree at %d", i)
		}
	}
	if d := fixedpsnr.CompareFields(f, g); math.Abs(d.PSNR-80) > 1 {
		t.Fatalf("round-trip PSNR %g", d.PSNR)
	}
}

// A context cancelled before Encode starts must surface ctx.Err()
// without compressing anything.
func TestEncoderPreCancelledContext(t *testing.T) {
	f := waveField("precancel", 64, 64)
	enc := mustEncoder(t, sessionOpts()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := enc.Encode(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	dec := fixedpsnr.NewDecoder()
	if _, _, err := dec.Decode(ctx, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("decode err = %v, want context.Canceled", err)
	}
}

// countdownCtx reports Canceled after a fixed number of Err checks — a
// deterministic stand-in for "the caller cancelled mid-compression". The
// compression loop polls Err between slabs, so the abort must land
// within one slab of work.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestEncoderCancellationMidCompression(t *testing.T) {
	f := waveField("midcancel", 64, 64)
	// ChunkRows 2 → 32 independent slabs; the countdown trips well
	// before they are through.
	enc := mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(80),
		fixedpsnr.WithWorkers(1),
		fixedpsnr.WithChunkRows(2),
	)
	ctx := &countdownCtx{Context: context.Background(), left: 4}
	_, _, err := enc.Encode(ctx, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The session must stay usable after a cancelled call.
	if _, _, err := enc.Encode(context.Background(), f); err != nil {
		t.Fatalf("post-cancel encode: %v", err)
	}
}

// One Encoder shared by many goroutines must round-trip correctly; run
// under -race this is the concurrency-safety check for the scratch pools.
func TestEncoderConcurrentReuse(t *testing.T) {
	enc := mustEncoder(t, sessionOpts()...)
	dec := fixedpsnr.NewDecoder()
	ctx := context.Background()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := waveField("conc", 50+g, 60)
			for iter := 0; iter < 3; iter++ {
				blob, _, err := enc.Encode(ctx, f)
				if err != nil {
					errs <- err
					return
				}
				recon, _, err := dec.Decode(ctx, blob)
				if err != nil {
					errs <- err
					return
				}
				if d := fixedpsnr.CompareFields(f, recon); math.Abs(d.PSNR-80) > 1 {
					errs <- errors.New("concurrent round-trip missed target")
					return
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

// Steady-state Encoder reuse must allocate measurably less than the
// one-shot path — the point of the scratch pools.
func TestEncoderReuseAllocatesLess(t *testing.T) {
	f := waveField("allocs", 200, 250)
	opt := fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 80, Workers: 1}
	ctx := context.Background()
	enc := mustEncoder(t, fixedpsnr.WithOptions(opt))
	for i := 0; i < 3; i++ { // warm the pools
		if _, _, err := enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := testing.AllocsPerRun(10, func() {
		if _, _, err := fixedpsnr.Compress(f, opt); err != nil {
			t.Fatal(err)
		}
	})
	reused := testing.AllocsPerRun(10, func() {
		if _, _, err := enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: one-shot %.0f, reused encoder %.0f", oneShot, reused)
	// Demand a real margin, not a tie: steady-state reuse currently runs
	// at under half the one-shot allocation count.
	if reused >= 0.8*oneShot {
		t.Fatalf("reused encoder allocates %.0f/op vs one-shot %.0f/op: pooling regressed", reused, oneShot)
	}
}

// Pin the absolute warm-Encoder allocation count, not just the margin
// over one-shot: the scratch pools (including the internal DEFLATE
// encoder) hold every large transient, so a warm encode should cost a
// small fixed number of allocations — the returned stream, the chunk
// table, and per-chunk payload copies. A creeping count here means a
// pool stopped being used on the hot path.
func TestEncoderWarmAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	f := waveField("allocs-pin", 200, 250)
	enc := mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(80),
		fixedpsnr.WithWorkers(1),
	)
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the pools
		if _, _, err := enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm encoder: %.0f allocs/op", allocs)
	const maxAllocs = 40
	if allocs > maxAllocs {
		t.Fatalf("warm encoder allocates %.0f/op, want <= %d", allocs, maxAllocs)
	}
}

// The transform pipeline's warm encode and decode allocate a small fixed
// number of times however many blocks a field has: codes go into one
// pooled chunk-wide slice and each chunk walks its blocks through one
// pooled buffer.
// The field is 32×64×64, 512 blocks of 8³.
func TestTransformWarmAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	f := waveField("otc-allocs-pin", 32, 64, 64)
	enc := mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(60),
		fixedpsnr.WithCompressor(fixedpsnr.CompressorTransform),
		fixedpsnr.WithWorkers(1),
	)
	dec := fixedpsnr.NewDecoder()
	ctx := context.Background()
	var blob []byte
	for i := 0; i < 3; i++ { // warm the pools
		var err error
		if blob, _, err = enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.Decode(ctx, blob); err != nil {
			t.Fatal(err)
		}
	}
	encAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := enc.Encode(ctx, f); err != nil {
			t.Fatal(err)
		}
	})
	decAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := dec.Decode(ctx, blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm transform pipeline: encode %.0f allocs/op, decode %.0f allocs/op", encAllocs, decAllocs)
	const maxAllocs = 64
	if encAllocs > maxAllocs {
		t.Errorf("warm transform encode allocates %.0f/op, want <= %d", encAllocs, maxAllocs)
	}
	if decAllocs > maxAllocs {
		t.Errorf("warm transform decode allocates %.0f/op, want <= %d", decAllocs, maxAllocs)
	}
}

func TestEncodeBatch(t *testing.T) {
	fields := []*fixedpsnr.Field{
		waveField("U", 40, 50),
		waveField("V", 30, 60),
		waveField("W", 25, 25),
	}
	enc := mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(75),
	)
	ctx := context.Background()
	streams, results, err := enc.EncodeBatch(ctx, fields)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != len(fields) || len(results) != len(fields) {
		t.Fatalf("got %d streams, %d results", len(streams), len(results))
	}
	dec := fixedpsnr.NewDecoder()
	for i, f := range fields {
		g, info, err := dec.Decode(ctx, streams[i])
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if info.Name != f.Name {
			t.Fatalf("field %d decoded as %q", i, info.Name)
		}
		if d := fixedpsnr.CompareFields(f, g); math.Abs(d.PSNR-75) > 1 {
			t.Fatalf("field %q PSNR %g", f.Name, d.PSNR)
		}
		if results[i].NPoints != f.Len() {
			t.Fatalf("field %q result NPoints %d", f.Name, results[i].NPoints)
		}
	}

	if _, _, err := enc.EncodeBatch(ctx, nil); err == nil {
		t.Fatal("empty batch should error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := enc.EncodeBatch(cancelled, fields); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}

	// A bad field surfaces a first-error with the field's name.
	bad := fixedpsnr.NewField("good", fixedpsnr.Float64, 4)
	bad.Dims[0] = 7 // corrupt shape
	if _, _, err := enc.EncodeBatch(ctx, []*fixedpsnr.Field{waveField("ok", 8, 8), bad}); err == nil {
		t.Fatal("batch with invalid field should error")
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := []fixedpsnr.Options{
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3},
		{Mode: fixedpsnr.ModeAbs}, // constant-field case resolves at plan time
		{Mode: fixedpsnr.ModeRel, RelBound: 1e-4},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: 80},
		{Mode: fixedpsnr.ModePWRel, PWRelBound: 0.01},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Capacity: 1024, BlockSize: 16},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, BlockSize: fixedpsnr.MaxBlockSize},
	}
	for i, opt := range valid {
		if err := opt.Validate(); err != nil {
			t.Fatalf("valid case %d rejected: %v", i, err)
		}
	}
	invalid := []fixedpsnr.Options{
		{Mode: fixedpsnr.ModeAbs, ErrorBound: -1},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: math.NaN()},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: math.Inf(1)},
		{Mode: fixedpsnr.ModeRel},
		{Mode: fixedpsnr.ModeRel, RelBound: math.Inf(1)},
		{Mode: fixedpsnr.ModePSNR},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: -3},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: math.NaN()},
		{Mode: fixedpsnr.ModePWRel},
		{Mode: fixedpsnr.ModePWRel, PWRelBound: 2},
		{Mode: fixedpsnr.ModePWRel, PWRelBound: 0.1, Compressor: fixedpsnr.CompressorTransform},
		{Mode: fixedpsnr.Mode(42), ErrorBound: 1},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Compressor: fixedpsnr.Compressor(9)},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Capacity: -1},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Capacity: 7},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Capacity: 1 << 21},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, BlockSize: -4},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, BlockSize: 1 << 21},
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, BlockSize: fixedpsnr.MaxBlockSize + 1},
	}
	for i, opt := range invalid {
		err := opt.Validate()
		if err == nil {
			t.Fatalf("invalid case %d accepted: %+v", i, opt)
		}
		if !strings.HasPrefix(err.Error(), "fixedpsnr:") {
			t.Fatalf("invalid case %d: error %q lacks fixedpsnr prefix", i, err)
		}
	}

	// Both API paths reject the same bad options.
	if _, err := fixedpsnr.NewEncoder(fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(-1)); err == nil {
		t.Fatal("NewEncoder accepted a negative PSNR target")
	}
	f := waveField("v", 16, 16)
	if _, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Capacity: 7}); err == nil {
		t.Fatal("Compress accepted an odd capacity")
	}
	// A block edge past the maximum is an error, not a panic in a
	// transform worker.
	wide := waveField("wide", 4, 100)
	if _, _, err := fixedpsnr.Compress(wide, fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
		Compressor: fixedpsnr.CompressorTransform, BlockSize: 100,
	}); err == nil {
		t.Fatal("Compress accepted BlockSize 100")
	}
}

// The unknown-codec selector errors at compress time with a clear
// message (the name cannot be checked at Validate time: registration may
// legitimately happen later).
func TestCodecNameSelector(t *testing.T) {
	f := waveField("byname", 32, 32)
	enc := mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(70),
		fixedpsnr.WithCodecName("otc"),
	)
	blob, _, err := enc.Encode(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := fixedpsnr.Decompress(blob); err != nil || info.Codec.String() != "otc-dct" {
		t.Fatalf("codec = %v, err = %v", info, err)
	}
	enc = mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(70),
		fixedpsnr.WithCodecName("no-such-codec"),
	)
	if _, _, err := enc.Encode(context.Background(), f); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v, want not-registered", err)
	}
}
