package sz

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/quantizer"
)

// TestWavefrontSchedule checks both of wavefront3D's orders on every
// row grid up to 40×40: each row is visited exactly once, after its
// three stencil neighbours (i, j−1), (i−1, j) and (i−1, j−1), so no row
// of a group reads another row of the same group. In the per-diagonal
// order border rows go one at a time through border and interior rows
// never do; in the cross order border is never called, and border rows
// run in groups like interior rows.
func TestWavefrontSchedule(t *testing.T) {
	for _, cross := range []bool{false, true} {
		for d0 := 1; d0 <= 40; d0++ {
			for d1 := 1; d1 <= 40; d1++ {
				checkSchedule(t, d0, d1, cross)
			}
		}
	}
}

func checkSchedule(t *testing.T, d0, d1 int, cross bool) {
	t.Helper()
	// step[r] is the group that visited row r, 1-based; 0 is unvisited.
	step := make([]int, d0*d1)
	groups, quads := 0, 0
	visit := func(kind string, ij ...int) {
		groups++
		for p := 0; p < len(ij); p += 2 {
			i, j := ij[p], ij[p+1]
			if i < 0 || i >= d0 || j < 0 || j >= d1 {
				t.Fatalf("%dx%d cross=%v: %s visits row (%d, %d) outside the grid", d0, d1, cross, kind, i, j)
			}
			if onBorder := i == 0 || j == 0; kind == "border" && (cross || !onBorder) || kind != "border" && !cross && onBorder {
				t.Fatalf("%dx%d cross=%v: %s visits row (%d, %d)", d0, d1, cross, kind, i, j)
			}
			if step[i*d1+j] != 0 {
				t.Fatalf("%dx%d cross=%v: row (%d, %d) visited twice", d0, d1, cross, i, j)
			}
			for _, nb := range [][2]int{{i, j - 1}, {i - 1, j}, {i - 1, j - 1}} {
				if nb[0] < 0 || nb[1] < 0 {
					continue
				}
				if s := step[nb[0]*d1+nb[1]]; s == 0 || s == groups {
					t.Fatalf("%dx%d cross=%v: %s row (%d, %d) runs before or with its neighbour (%d, %d)",
						d0, d1, cross, kind, i, j, nb[0], nb[1])
				}
			}
		}
		for p := 0; p < len(ij); p += 2 {
			step[ij[p]*d1+ij[p+1]] = groups
		}
	}
	wavefront3D(d0, d1, cross,
		func(i, j int) { visit("border", i, j) },
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) { quads++; visit("quad", i1, j1, i2, j2, i3, j3, i4, j4) },
		func(i1, j1, i2, j2 int) { visit("pair", i1, j1, i2, j2) },
		func(i, j int) { visit("single", i, j) })
	for r, s := range step {
		if s == 0 {
			t.Fatalf("%dx%d cross=%v: row (%d, %d) never visited", d0, d1, cross, r/d1, r%d1)
		}
	}
	// The cross order must not lose quads: it forms at least as many as
	// the per-diagonal order.
	if cross {
		plain := 0
		wavefront3D(d0, d1, false, func(int, int) {},
			func(int, int, int, int, int, int, int, int) { plain++ },
			func(int, int, int, int) {}, func(int, int) {})
		if quads < plain {
			t.Fatalf("%dx%d: cross order forms %d quads, per-diagonal order %d", d0, d1, quads, plain)
		}
	}
}

// TestCrossScheduleQuads pins what the cross order buys on an 8-plane
// chunk of 128-row planes (ratio-steer's sz chunk shape) and a 4-plane
// one (serve-mixed's). In the per-diagonal order the 135 or 131 border
// rows run one at a time, and 381 of the 889 or all 381 interior rows
// outside quads. In the cross order 12 rows of each chunk run outside
// quads, near the short corner diagonals.
func TestCrossScheduleQuads(t *testing.T) {
	count := func(d0 int, cross bool) (quads, rest, border int) {
		wavefront3D(d0, 128, cross, func(int, int) { border++ },
			func(int, int, int, int, int, int, int, int) { quads++ },
			func(int, int, int, int) { rest += 2 },
			func(int, int) { rest++ })
		return quads, rest, border
	}
	for _, c := range []struct{ d0, border, interiorRest int }{{8, 135, 381}, {4, 131, 381}} {
		q0, r0, b0 := count(c.d0, false)
		q1, r1, b1 := count(c.d0, true)
		if rows := c.d0 * 128; 4*q0+r0+b0 != rows || 4*q1+r1+b1 != rows {
			t.Fatalf("d0 %d: rows %d and %d, want %d", c.d0, 4*q0+r0+b0, 4*q1+r1+b1, rows)
		}
		if b0 != c.border || r0 != c.interiorRest || b1 != 0 || r1 != 12 {
			t.Fatalf("d0 %d: per-diagonal order has %d border and %d interior rows outside quads, cross order %d border and %d other; want %d, %d, 0 and 12",
				c.d0, b0, r0, b1, r1, c.border, c.interiorRest)
		}
	}
}

// TestDecompress3DMatchesWavefrontOrder decodes slabs of many plane
// counts through decompress3D (the cross-diagonal order, border rows in
// its groups) and through decompress3DRef (wavefront3D's per-diagonal
// order, the encoder's, with the border rows through the scalar
// stencil), with the dispatched and the generic kernels: every decoded
// bit must match. Grids of 4×4 and up put border rows into quads beside
// interior rows, and row lengths 5, 14 and 15 leave the quad kernel
// tails of 1–3 points; the noise against the bound makes about a fifth
// of the points literals.
func TestDecompress3DMatchesWavefrontOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	q, err := quantizer.New(1e-3, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	lits, points := 0, 0
	for _, d0 := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33} {
		for _, d1 := range []int{1, 4, 6, 13} {
			for _, d2 := range []int{1, 5, 8, 14, 15} {
				dims := []int{d0, d1, d2}
				n := d0 * d1 * d2
				data := make([]float64, n)
				for p := range data {
					data[p] = math.Sin(float64(p)/9) + 0.3*rng.NormFloat64()
				}
				data[rng.Intn(n)] = math.NaN()
				codes, recon := make([]int32, n), make([]float64, n)
				var st coreState
				compress3D(data, dims, codes, recon, &st, q)
				lits += len(st.literals)
				points += n
				for _, generic := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/generic=%v", dims, generic), func(t *testing.T) {
						if generic {
							defer kernels.ForceGeneric()()
						}
						got, want := make([]float64, n), make([]float64, n)
						if err := decompress3D(got, codes, st.literals, dims, q); err != nil {
							t.Fatal(err)
						}
						if err := decompress3DRef(want, codes, st.literals, dims, q); err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatal("cross-diagonal decode differs from the wavefront-order decode")
						}
						if !sameBits(got, recon) {
							t.Fatal("decode differs from the encoder's reconstruction")
						}
					})
				}
			}
		}
	}
	if lits*10 < points {
		t.Fatalf("%d literals in %d points: too few to exercise the literal lanes", lits, points)
	}
}
