package transform

import "testing"

func BenchmarkDCTForward8(b *testing.B) {
	d, err := NewDCT(8)
	if err != nil {
		b.Fatal(err)
	}
	src := randSlice(8, 1)
	dst := make([]float64, 8)
	for i := 0; i < b.N; i++ {
		d.Forward(dst, src)
	}
}

func BenchmarkDCTForward3D8(b *testing.B) {
	d, _ := NewDCT(8)
	src := randSlice(512, 3)
	dst := make([]float64, 512)
	b.SetBytes(512 * 8)
	for i := 0; i < b.N; i++ {
		d.Forward3D(dst, src)
	}
}

func BenchmarkHaarForward256(b *testing.B) {
	src := randSlice(256, 4)
	work := make([]float64, 256)
	b.SetBytes(256 * 8)
	for i := 0; i < b.N; i++ {
		copy(work, src)
		if err := HaarForward(work, 8); err != nil {
			b.Fatal(err)
		}
	}
}
