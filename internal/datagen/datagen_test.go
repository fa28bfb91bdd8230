package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fixedpsnr/internal/field"
)

func TestGRFValidates(t *testing.T) {
	if _, err := GRF(nil, GRFOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for empty dims")
	}
	if _, err := GRF([]int{2, 2, 2, 2}, GRFOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for rank 4")
	}
	if _, err := GRF([]int{4, -1}, GRFOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for negative dim")
	}
}

func TestGRFNormalized(t *testing.T) {
	xs, err := GRF([]int{48, 52}, GRFOptions{Beta: 3, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 48*52 {
		t.Fatalf("len = %d", len(xs))
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	if math.Abs(mean) > 1e-10 {
		t.Fatalf("mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 1e-10 {
		t.Fatalf("variance = %g, want 1", variance)
	}
}

func TestGRFDeterministic(t *testing.T) {
	a, err := GRF([]int{30, 30}, GRFOptions{Beta: 2.5, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GRF([]int{30, 30}, GRFOptions{Beta: 2.5, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded GRF not deterministic at %d (workers must not matter)", i)
		}
	}
	c, _ := GRF([]int{30, 30}, GRFOptions{Beta: 2.5, Seed: 8, Workers: 1})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fields")
	}
}

// Higher beta must give smoother fields: neighbor differences shrink.
func TestGRFSmoothnessOrdering(t *testing.T) {
	rough, err := GRF([]int{64, 64}, GRFOptions{Beta: 2.0, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := GRF([]int{64, 64}, GRFOptions{Beta: 4.5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	meanAbsDiff := func(xs []float64) float64 {
		var s float64
		for i := 1; i < len(xs); i++ {
			s += math.Abs(xs[i] - xs[i-1])
		}
		return s / float64(len(xs)-1)
	}
	if meanAbsDiff(smooth) >= meanAbsDiff(rough) {
		t.Fatalf("beta=4.5 rougher than beta=2.0: %g vs %g",
			meanAbsDiff(smooth), meanAbsDiff(rough))
	}
}

func TestSynthesizeKinds(t *testing.T) {
	dims2 := []int{24, 28}
	dims3 := []int{8, 16, 16}
	cases := []struct {
		spec Spec
		dims []int
	}{
		{Spec{Name: "smooth", Kind: KindSmooth, Beta: 3, Offset: 100, Scale: 10}, dims2},
		{Spec{Name: "logn", Kind: KindLognormal, Beta: 3, Sigma: 1.5, Scale: 2}, dims2},
		{Spec{Name: "clip", Kind: KindClipped, Beta: 3, Sigma: 0.5, Thresh: 0.4}, dims2},
		{Spec{Name: "sparse", Kind: KindSparse, Beta: 3, Scale: 1e-3, Thresh: 1.0}, dims2},
		{Spec{Name: "u", Kind: KindVortexU, Beta: 3, Sigma: 2, Scale: 50}, dims3},
		{Spec{Name: "v", Kind: KindVortexV, Beta: 3, Sigma: 2, Scale: 50}, dims3},
		{Spec{Name: "w", Kind: KindVortexW, Beta: 3, Sigma: 1, Scale: 40}, dims3},
	}
	for _, c := range cases {
		f, err := Synthesize("test", c.spec, c.dims, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if f.Precision != field.Float32 {
			t.Fatalf("%s: not rounded to float32", c.spec.Name)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		_, _, vr := f.ValueRange()
		if vr <= 0 {
			t.Fatalf("%s: degenerate value range", c.spec.Name)
		}
	}
}

func TestSynthesizeClippedInUnitInterval(t *testing.T) {
	f, err := Synthesize("t", Spec{Name: "c", Kind: KindClipped, Beta: 2.8, Sigma: 0.5, Thresh: 0.5}, []int{40, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sawLow, sawHigh := false, false
	for _, v := range f.Data {
		if v < 0 || v > 1 {
			t.Fatalf("clipped value %g outside [0,1]", v)
		}
		if v < 0.02 {
			sawLow = true
		}
		if v > 0.98 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Fatal("expected near-saturation at both ends for a cloud-fraction field")
	}
}

func TestSynthesizeSparseNonNegative(t *testing.T) {
	f, err := Synthesize("t", Spec{Name: "s", Kind: KindSparse, Beta: 2.5, Scale: 1, Thresh: 1.0}, []int{40, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, max, _ := f.ValueRange()
	low := 0
	for _, v := range f.Data {
		if v < 0 {
			t.Fatalf("sparse value %g < 0", v)
		}
		if v < 0.02*max {
			low++
		}
	}
	// Sparse fields are burst-dominated: most points sit on the weak
	// background, far below the peaks.
	if low < len(f.Data)/2 {
		t.Fatalf("sparse field has only %d/%d background points", low, len(f.Data))
	}
}

func TestVortexNeedsRank3(t *testing.T) {
	if _, err := Synthesize("t", Spec{Name: "u", Kind: KindVortexU, Beta: 3, Scale: 10}, []int{10, 10}, 1); err == nil {
		t.Fatal("expected error for 2-D vortex")
	}
}

func TestSynthesizeUnknownKind(t *testing.T) {
	if _, err := Synthesize("t", Spec{Name: "x", Kind: Kind(99), Beta: 3}, []int{8, 8}, 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestDatasetRegistries(t *testing.T) {
	nyx := NYX(nil)
	atm := ATM(nil)
	hur := Hurricane(nil)
	if nyx.NumFields() != 6 {
		t.Fatalf("NYX has %d fields, want 6", nyx.NumFields())
	}
	if atm.NumFields() != 79 {
		t.Fatalf("ATM has %d fields, want 79 (paper Table I)", atm.NumFields())
	}
	if hur.NumFields() != 13 {
		t.Fatalf("Hurricane has %d fields, want 13", hur.NumFields())
	}
	if len(nyx.Dims) != 3 || len(atm.Dims) != 2 || len(hur.Dims) != 3 {
		t.Fatal("dataset ranks wrong")
	}
	// Unique names per set.
	for _, d := range []*Dataset{nyx, atm, hur} {
		seen := map[string]bool{}
		for _, s := range d.Specs {
			if seen[s.Name] {
				t.Fatalf("%s: duplicate field %q", d.Name, s.Name)
			}
			seen[s.Name] = true
		}
		if d.SizeBytes() <= 0 {
			t.Fatalf("%s: non-positive size", d.Name)
		}
	}
}

func TestDatasetFieldAccess(t *testing.T) {
	d := NYX([]int{8, 8, 8})
	f, err := d.Field(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "baryon_density" {
		t.Fatalf("field 0 = %q", f.Name)
	}
	if _, err := d.Field(99, 1); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	g, err := d.FieldByName("temperature", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "temperature" {
		t.Fatal("FieldByName returned wrong field")
	}
	if _, err := d.FieldByName("nope", 1); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestDatasetFieldsParallel(t *testing.T) {
	d := Hurricane([]int{6, 20, 20})
	fs, err := d.Fields(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 13 {
		t.Fatalf("got %d fields", len(fs))
	}
	for i, f := range fs {
		if f == nil {
			t.Fatalf("field %d missing", i)
		}
		if f.Name != d.Specs[i].Name {
			t.Fatalf("field %d name %q != %q", i, f.Name, d.Specs[i].Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"NYX", "ATM", "Hurricane"} {
		d, err := ByName(name)
		if err != nil || d.Name != name {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown data set")
	}
	if len(Registry()) != 3 {
		t.Fatal("registry should have 3 data sets")
	}
}

func TestFieldReproducible(t *testing.T) {
	d := ATM([]int{20, 30})
	a, err := d.Field(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Field(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("field not reproducible at %d", i)
		}
	}
}

func TestTimeSeriesValidates(t *testing.T) {
	if _, err := TimeSeries([]int{16, 16}, 0, TimeSeriesOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for zero steps")
	}
	if _, err := TimeSeries(nil, 4, TimeSeriesOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for empty dims")
	}
	if _, err := TimeSeries([]int{16, -1}, 4, TimeSeriesOptions{Beta: 3}); err == nil {
		t.Fatal("expected error for bad dim")
	}
	if _, err := TimeSeries([]int{16}, 4, TimeSeriesOptions{Beta: 3, Rho: 1.5}); err == nil {
		t.Fatal("expected error for rho > 1")
	}
}

func TestTimeSeriesTemporalCorrelation(t *testing.T) {
	series, err := TimeSeries([]int{32, 32}, 8, TimeSeriesOptions{Beta: 3.2, Rho: 0.95, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("got %d snapshots", len(series))
	}
	// Consecutive snapshots must be far closer than distant ones.
	dist := func(a, b *field.Field) float64 {
		var s float64
		for i := range a.Data {
			d := a.Data[i] - b.Data[i]
			s += d * d
		}
		return s
	}
	near := dist(series[0], series[1])
	far := dist(series[0], series[7])
	if near <= 0 {
		t.Fatal("consecutive snapshots identical — no evolution")
	}
	if far <= near {
		t.Fatalf("temporal correlation broken: near=%g far=%g", near, far)
	}
	for i, f := range series {
		if f.Precision != field.Float32 {
			t.Fatalf("snapshot %d not float32", i)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
}

func TestTimeSeriesReproducible(t *testing.T) {
	a, err := TimeSeries([]int{16, 16}, 3, TimeSeriesOptions{Beta: 3, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TimeSeries([]int{16, 16}, 3, TimeSeriesOptions{Beta: 3, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tdx := range a {
		for i := range a[tdx].Data {
			if a[tdx].Data[i] != b[tdx].Data[i] {
				t.Fatalf("series not reproducible at t=%d i=%d", tdx, i)
			}
		}
	}
}

// TestChunkBenchPinned pins the chunkbench generator bit for bit, so
// throughput figures measured on it stay comparable across releases,
// and checks that a piecewise fill (the streaming reader's access
// pattern) reproduces the whole-field fill.
func TestChunkBenchPinned(t *testing.T) {
	dims := []int{24, 40, 36}
	whole := make([]float64, dims[0]*dims[1]*dims[2])
	ChunkBench(whole, 0, dims)
	h := fnv.New64a()
	for _, v := range whole {
		if !(v >= -2 && v <= 2) {
			t.Fatalf("value %g outside [-2, 2]", v)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	if got, want := h.Sum64(), uint64(0x8f59f0571ac3ce2); got != want {
		t.Fatalf("chunkbench field hash %#x, want %#x", got, want)
	}
	piece := make([]float64, 1000)
	for start := 0; start < len(whole); start += len(piece) {
		p := piece[:min(len(piece), len(whole)-start)]
		ChunkBench(p, start, dims)
		for k, v := range p {
			if math.Float64bits(v) != math.Float64bits(whole[start+k]) {
				t.Fatalf("piecewise fill differs at %d", start+k)
			}
		}
	}
}
