//go:build amd64 && !noasm

package kernels

import (
	"io"
	"runtime"
	"runtime/trace"
	"testing"
	"unsafe"
)

// TestReconRows4KeepsFramePointer guards reconRows4Asm's frame size. The
// kernel rounds SP up to 32 bytes for its scratch layout, so a frame
// sized without the alignment slack writes over the caller's saved frame
// pointer at some stack depths. Output bits do not show that; a
// frame-pointer unwind does. The test calls the kernel at each stack
// alignment modulo 32 and then yields from the same frame with the
// execution tracer on: the tracer unwinds the yield's stack by frame
// pointers, and a pointer replaced by the radius (1 here) faults.
func TestReconRows4KeepsFramePointer(t *testing.T) {
	if !haveAVX2FMA() {
		t.Skip("no AVX2: the vector quad is not dispatched")
	}
	if err := trace.Start(io.Discard); err != nil {
		t.Skipf("execution tracer unavailable: %v", err)
	}
	defer trace.Stop()

	const n = 6 // one four-column block and a two-point scalar tail
	q := &Quant{InvDelta: 1, Delta: 1, EB: 0.5, RadiusF: 1, Radius: 1}
	rows := make([]*RRRow, 4)
	for l := range rows {
		codes := make([]int32, n)
		for k := range codes {
			codes[k] = int32(k % 3) // a literal every third point
		}
		rows[l] = &RRRow{
			Out: make([]float64, n), Codes: codes,
			Up: make([]float64, n), Pl: make([]float64, n), Pu: make([]float64, n),
			Lits: []float64{1, 2},
		}
	}
	var aligns [4]bool
	for depth := range 16 {
		reconAtDepth(depth, q, rows, &aligns)
	}
	for a, seen := range aligns {
		if !seen {
			t.Fatalf("the kernel never ran at stack alignment %d mod 32: %v", 8*a, aligns)
		}
	}
}

// reconAtDepth recurses depth frames deep, then runs the vector quad and
// yields from the same frame, noting the frame's alignment modulo 32.
//
//go:noinline
func reconAtDepth(depth int, q *Quant, rows []*RRRow, aligns *[4]bool) {
	if depth > 0 {
		reconAtDepth(depth-1, q, rows, aligns)
		return
	}
	var here uint64
	aligns[uintptr(unsafe.Pointer(&here))%32/8] = true
	reconRows4Asm(q, rows[0], rows[1], rows[2], rows[3])
	runtime.Gosched()
}
