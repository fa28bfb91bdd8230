package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchRecon returns rows of n points as a decoder hands them to the
// reconstruction kernels: the generic encoder's codes and literals for
// random rows at a bound where about one point in 700 is a literal.
func benchRecon(rows, n int) (*Quant, []*RRRow) {
	rng := rand.New(rand.NewSource(1))
	q := testQuant(1e-3, 1<<16)
	rs := make([]*RRRow, rows)
	for l := range rs {
		e := newPQRow(randRow(rng, n, false), randRow(rng, n, false), randRow(rng, n, false), randRow(rng, n, false))
		pqRowGeneric(q, e)
		rs[l] = &RRRow{Out: make([]float64, n), Codes: e.Codes, Up: e.Up, Pl: e.Pl, Pu: e.Pu, Lits: e.Lits}
	}
	return q, rs
}

// BenchmarkReconstructRows times one call of the single, pair and quad
// reconstruction kernels on rows of 128 points, and reports ns/point.
func BenchmarkReconstructRows(b *testing.B) {
	const n = 128
	for _, rows := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			q, rs := benchRecon(rows, n)
			b.SetBytes(int64(8 * n * rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch rows {
				case 1:
					ReconstructRow(q, rs[0])
				case 2:
					ReconstructRows2(q, rs[0], rs[1])
				case 4:
					ReconstructRows4(q, rs[0], rs[1], rs[2], rs[3])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*rows), "ns/point")
		})
	}
}

// BenchmarkCountZeros times CountZeros on a 128-code row, one sz
// decode row, with one literal.
func BenchmarkCountZeros(b *testing.B) {
	codes := make([]int32, 128)
	for i := range codes {
		codes[i] = int32(32768 + i%7 - 3)
	}
	codes[77] = 0
	b.SetBytes(int64(4 * len(codes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countSink += CountZeros(codes)
	}
}

var countSink int
