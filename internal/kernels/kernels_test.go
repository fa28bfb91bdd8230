package kernels

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"fixedpsnr/internal/quantizer"
)

// TestRoundMagicMatchesQuantizer pins the package-local rounding
// constant to the quantizer's: the kernels reimplement its binning
// arithmetic and must round identically.
func TestRoundMagicMatchesQuantizer(t *testing.T) {
	if roundMagic != quantizer.RoundMagic {
		t.Fatalf("roundMagic = %g, quantizer.RoundMagic = %g", float64(roundMagic), float64(quantizer.RoundMagic))
	}
}

// TestAsmStructOffsets pins the struct layouts the assembly kernels
// hard-code. A failure here means the .s files must be updated before
// anything else is debugged.
func TestAsmStructOffsets(t *testing.T) {
	check := func(name string, got, want uintptr) {
		t.Helper()
		if got != want {
			t.Errorf("%s offset = %d, assembly assumes %d", name, got, want)
		}
	}
	var q Quant
	check("Quant.InvDelta", unsafe.Offsetof(q.InvDelta), 0)
	check("Quant.Delta", unsafe.Offsetof(q.Delta), 8)
	check("Quant.EB", unsafe.Offsetof(q.EB), 16)
	check("Quant.RadiusF", unsafe.Offsetof(q.RadiusF), 24)
	check("Quant.Radius", unsafe.Offsetof(q.Radius), 32)

	var p PQRow
	check("PQRow.Data", unsafe.Offsetof(p.Data), 0)
	check("PQRow.Recon", unsafe.Offsetof(p.Recon), 24)
	check("PQRow.Codes", unsafe.Offsetof(p.Codes), 48)
	check("PQRow.Up", unsafe.Offsetof(p.Up), 72)
	check("PQRow.Pl", unsafe.Offsetof(p.Pl), 96)
	check("PQRow.Pu", unsafe.Offsetof(p.Pu), 120)
	check("PQRow.Lits", unsafe.Offsetof(p.Lits), 144)
	check("PQRow.SumSq", unsafe.Offsetof(p.SumSq), 168)

	var r RRRow
	check("RRRow.Out", unsafe.Offsetof(r.Out), 0)
	check("RRRow.Codes", unsafe.Offsetof(r.Codes), 24)
	check("RRRow.Up", unsafe.Offsetof(r.Up), 48)
	check("RRRow.Pl", unsafe.Offsetof(r.Pl), 72)
	check("RRRow.Pu", unsafe.Offsetof(r.Pu), 96)
	check("RRRow.Lits", unsafe.Offsetof(r.Lits), 120)

	var d LaneDecode
	check("LaneDecode.Body", unsafe.Offsetof(d.Body), 0)
	check("LaneDecode.Out", unsafe.Offsetof(d.Out), 24)
	check("LaneDecode.Syms", unsafe.Offsetof(d.Syms), 48)
	check("LaneDecode.Table", unsafe.Offsetof(d.Table), 72)
	check("LaneDecode.Pos", unsafe.Offsetof(d.Pos), 96)
	check("LaneDecode.Win", unsafe.Offsetof(d.Win), 128)
	check("LaneDecode.Rounds", unsafe.Offsetof(d.Rounds), 160)

	if size := unsafe.Sizeof(int(0)); size != 8 {
		t.Skipf("assembly kernels assume 64-bit int, have %d bytes", size)
	}
}

func testQuant(eb float64, capacity int) *Quant {
	q, err := quantizer.New(eb, capacity)
	if err != nil {
		panic(err)
	}
	return &Quant{
		InvDelta: q.InvDelta(),
		Delta:    q.Delta(),
		EB:       q.ErrorBound(),
		RadiusF:  float64(q.Radius()),
		Radius:   int64(q.Radius()),
	}
}

// specials salts positions of a row with the awkward values the
// bit-identity contract must survive.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64,
	1e300, -1e300,
}

func randRow(rng *rand.Rand, n int, salt bool) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = rng.NormFloat64() * 10
	}
	if salt && n > 0 {
		for k := 0; k < 1+n/7; k++ {
			row[rng.Intn(n)] = specials[rng.Intn(len(specials))]
		}
	}
	return row
}

func newPQRow(data, up, pl, pu []float64) *PQRow {
	n := len(data)
	return &PQRow{
		Data:  data,
		Recon: make([]float64, n),
		Codes: make([]int32, n),
		Up:    up,
		Pl:    pl,
		Pu:    pu,
		Lits:  make([]float64, 0, n),
	}
}

func clonePQRow(a *PQRow) *PQRow {
	b := *a
	b.Recon = append([]float64(nil), a.Recon...)
	b.Codes = append([]int32(nil), a.Codes...)
	b.Lits = make([]float64, len(a.Lits), cap(a.Lits))
	copy(b.Lits, a.Lits)
	return &b
}

func comparePQRows(t *testing.T, label string, want, got *PQRow) {
	t.Helper()
	for k := range want.Recon {
		if math.Float64bits(want.Recon[k]) != math.Float64bits(got.Recon[k]) {
			t.Fatalf("%s: recon[%d] = %x, want %x", label, k, math.Float64bits(got.Recon[k]), math.Float64bits(want.Recon[k]))
		}
		if want.Codes[k] != got.Codes[k] {
			t.Fatalf("%s: codes[%d] = %d, want %d", label, k, got.Codes[k], want.Codes[k])
		}
	}
	if len(want.Lits) != len(got.Lits) {
		t.Fatalf("%s: %d literals, want %d", label, len(got.Lits), len(want.Lits))
	}
	for k := range want.Lits {
		if math.Float64bits(want.Lits[k]) != math.Float64bits(got.Lits[k]) {
			t.Fatalf("%s: lits[%d] = %x, want %x", label, k, math.Float64bits(got.Lits[k]), math.Float64bits(want.Lits[k]))
		}
	}
	if math.Float64bits(want.SumSq) != math.Float64bits(got.SumSq) {
		t.Fatalf("%s: SumSq = %x, want %x", label, math.Float64bits(got.SumSq), math.Float64bits(want.SumSq))
	}
}

// TestPredictQuantizeDispatchedMatchesGeneric drives the dispatched
// row kernels (assembly when active) against the generic reference on
// random rows salted with NaN/Inf/denormal values, every length 0..130
// to exercise tails, asserting bit-identical outputs.
func TestPredictQuantizeDispatchedMatchesGeneric(t *testing.T) {
	if Active() == "generic" {
		t.Skip("dispatched kernels are the generic kernels on this build")
	}
	rng := rand.New(rand.NewSource(9))
	for _, eb := range []float64{1e-3, 0.5, 1e-10} {
		q := testQuant(eb, 1024)
		for n := 0; n <= 130; n++ {
			salt := n%3 == 0
			data := randRow(rng, n, salt)
			up := randRow(rng, n, salt)
			pl := randRow(rng, n, salt)
			pu := randRow(rng, n, salt)

			ref := newPQRow(data, up, pl, pu)
			pqRowGeneric(q, ref)
			got := newPQRow(data, up, pl, pu)
			PredictQuantizeRow(q, got)
			comparePQRows(t, "row", ref, got)

			// Pair form against two generic single-row calls.
			dataB := randRow(rng, n, salt)
			refA := newPQRow(data, up, pl, pu)
			refB := newPQRow(dataB, pl, up, pu)
			pqRowGeneric(q, refA)
			pqRowGeneric(q, refB)
			gotA := newPQRow(data, up, pl, pu)
			gotB := newPQRow(dataB, pl, up, pu)
			PredictQuantizeRows2(q, gotA, gotB)
			comparePQRows(t, "pairA", refA, gotA)
			comparePQRows(t, "pairB", refB, gotB)

			// Quad form against four generic single-row calls.
			dataC := randRow(rng, n, salt)
			dataD := randRow(rng, n, salt)
			refC := newPQRow(dataC, up, pu, pl)
			refD := newPQRow(dataD, pu, pl, up)
			qr := [4]*PQRow{
				newPQRow(data, up, pl, pu),
				newPQRow(dataB, pl, up, pu),
				newPQRow(dataC, up, pu, pl),
				newPQRow(dataD, pu, pl, up),
			}
			pqRowGeneric(q, refC)
			pqRowGeneric(q, refD)
			PredictQuantizeRows4(q, qr[0], qr[1], qr[2], qr[3])
			comparePQRows(t, "quadA", refA, qr[0])
			comparePQRows(t, "quadB", refB, qr[1])
			comparePQRows(t, "quadC", refC, qr[2])
			comparePQRows(t, "quadD", refD, qr[3])

			// Reconstruction of the quantized rows must round-trip
			// identically too.
			checkRecon(t, q, refA)
			checkRecon(t, q, refB)
			checkRecon(t, q, refC)
			checkRecon(t, q, refD)
		}
	}
}

// checkRecon reconstructs a quantized row with both the generic and
// dispatched kernels and asserts both match the encoder's recon.
func checkRecon(t *testing.T, q *Quant, enc *PQRow) {
	t.Helper()
	n := len(enc.Data)
	mk := func() *RRRow {
		return &RRRow{
			Out:   make([]float64, n),
			Codes: enc.Codes,
			Up:    enc.Up,
			Pl:    enc.Pl,
			Pu:    enc.Pu,
			Lits:  enc.Lits,
		}
	}
	ref := mk()
	reconRowGeneric(q, ref)
	got := mk()
	ReconstructRow(q, got)
	for k := 0; k < n; k++ {
		if math.Float64bits(ref.Out[k]) != math.Float64bits(got.Out[k]) {
			t.Fatalf("recon: out[%d] = %x, want %x", k, math.Float64bits(got.Out[k]), math.Float64bits(ref.Out[k]))
		}
	}
}

// TestReconstructGroupsMatchGeneric checks the pair and quad
// reconstruction kernels against generic single-row calls, literals
// included.
func TestReconstructGroupsMatchGeneric(t *testing.T) {
	if Active() == "generic" {
		t.Skip("dispatched kernels are the generic kernels on this build")
	}
	rng := rand.New(rand.NewSource(17))
	q := testQuant(1e-2, 512)
	for n := 1; n <= 100; n++ {
		var enc, ref [4]*RRRow
		for l := range enc {
			e := newPQRow(randRow(rng, n, true), randRow(rng, n, true), randRow(rng, n, true), randRow(rng, n, true))
			pqRowGeneric(q, e)
			mk := func() *RRRow {
				return &RRRow{Out: make([]float64, n), Codes: e.Codes, Up: e.Up, Pl: e.Pl, Pu: e.Pu, Lits: e.Lits}
			}
			enc[l], ref[l] = mk(), mk()
			reconRowGeneric(q, ref[l])
		}
		compare := func(label string, want, got *RRRow) {
			t.Helper()
			for k := 0; k < n; k++ {
				if math.Float64bits(want.Out[k]) != math.Float64bits(got.Out[k]) {
					t.Fatalf("%s out[%d] mismatch (n=%d)", label, k, n)
				}
			}
		}
		ReconstructRows2(q, enc[0], enc[1])
		compare("pairA", ref[0], enc[0])
		compare("pairB", ref[1], enc[1])
		for l := range enc {
			for k := range enc[l].Out {
				enc[l].Out[k] = 0
			}
		}
		ReconstructRows4(q, enc[0], enc[1], enc[2], enc[3])
		for l := range enc {
			compare("quad", ref[l], enc[l])
		}
	}
}

// TestMinMaxDispatchedMatchesGeneric covers tails, specials, and the
// ±0 tie-resolution order.
func TestMinMaxDispatchedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]float64{
		nil,
		{},
		{math.NaN()},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{0, math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0},
		{1, 2, 3, 4, 5, 6, 7},
		{math.Inf(1), math.Inf(-1)},
	}
	for n := 0; n <= 70; n++ {
		cases = append(cases, randRow(rng, n, true))
	}
	for i, data := range cases {
		wantMin, wantMax := minMaxGeneric(data)
		gotMin, gotMax := MinMax(data)
		if math.Float64bits(wantMin) != math.Float64bits(gotMin) || math.Float64bits(wantMax) != math.Float64bits(gotMax) {
			t.Errorf("case %d: MinMax = (%x, %x), want (%x, %x)", i,
				math.Float64bits(gotMin), math.Float64bits(gotMax),
				math.Float64bits(wantMin), math.Float64bits(wantMax))
		}
	}
}

// TestCountLanes4DispatchedMatchesGeneric checks lane-exact counts —
// every tail length mod 4 — and the panic contract on an out-of-range
// symbol in each position of a quad and of the tail.
func TestCountLanes4DispatchedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 64, 65, 1000, 1001, 1002, 1003} {
		syms := make([]int32, n)
		for i := range syms {
			syms[i] = int32(rng.Intn(256))
		}
		var want, got [4][]int64
		for l := range want {
			want[l] = make([]int64, 256)
			got[l] = make([]int64, 256)
		}
		countLanes4Generic(want[0], want[1], want[2], want[3], syms)
		CountLanes4(got[0], got[1], got[2], got[3], syms)
		for l := range want {
			for i := range want[l] {
				if want[l][i] != got[l][i] {
					t.Fatalf("n=%d: lane%d[%d] = %d, want %d", n, l, i, got[l][i], want[l][i])
				}
			}
		}
	}
	for _, bad := range []int32{-1, 256, 1 << 30} {
		for pos := 0; pos < 7; pos++ {
			syms := []int32{1, 2, 3, 4, 5, 6, 7}
			syms[pos] = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("CountLanes4(sym=%d at %d) did not panic", bad, pos)
					}
				}()
				CountLanes4(make([]int64, 256), make([]int64, 256), make([]int64, 256), make([]int64, 256), syms)
			}()
		}
	}
}

// TestForceGeneric verifies the test-only dispatch override restores
// the previous selection.
func TestForceGeneric(t *testing.T) {
	before := Active()
	restore := ForceGeneric()
	if Active() != "generic" {
		t.Fatalf("Active() = %q under ForceGeneric", Active())
	}
	restore()
	if Active() != before {
		t.Fatalf("Active() = %q after restore, want %q", Active(), before)
	}
}

// TestDecodeLanes4Bounds pins DecodeLanes4's entry checks: a call whose
// reloads would read past Body, or whose Out is not whole iterations,
// panics before the loop runs; an empty Out decodes nothing.
func TestDecodeLanes4Bounds(t *testing.T) {
	tab := make([]uint32, LaneTableRoot)
	for i := range tab {
		tab[i] = uint32(i>>11)<<8 | 1 // a 1-bit code for each of two symbols
	}
	body := make([]byte, 4*(8+7*2))
	d := LaneDecode{Body: body, Syms: []int32{5, 9}, Table: tab, Rounds: 3}
	for lane := range d.Pos {
		d.Pos[lane] = lane * (8 + 7*2)
	}
	mustPanic := func(name string, out int, shift int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		c := d
		c.Out = make([]int32, out)
		c.Pos[3] += shift
		DecodeLanes4(&c)
	}
	mustPanic("three iterations in two iterations' bytes", 3*12, 0)
	mustPanic("a lane one byte further on", 2*12, 1)
	mustPanic("half an iteration", 6, 0)
	c := d
	c.Out = make([]int32, 2*12)
	DecodeLanes4(&c)
	for i, s := range c.Out {
		if s != 5 {
			t.Fatalf("symbol %d of a zero body is %d, want 5", i, s)
		}
	}
	c.Out = c.Out[:0]
	DecodeLanes4(&c)
}
