// Package field provides the in-memory representation of an N-dimensional
// scientific data field: a dense row-major array of floating-point values
// together with its grid dimensions, name, and source precision.
//
// All compressors and experiment harnesses in this module operate on
// *field.Field values. Data is held as float64 internally regardless of the
// on-disk precision so that quantization arithmetic is uniform; the
// Precision tag records how values should be serialized and how
// unpredictable points are stored losslessly.
package field

import (
	"fmt"

	"fixedpsnr/internal/kernels"
)

// Precision identifies the storage precision of a field's values.
type Precision uint8

const (
	// Float32 marks single-precision data (the common case for HPC
	// simulation snapshots, and the precision used by the paper).
	Float32 Precision = iota
	// Float64 marks double-precision data.
	Float64
)

// String returns the conventional name of the precision.
func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// Bytes returns the number of bytes one value occupies at this precision.
func (p Precision) Bytes() int {
	if p == Float32 {
		return 4
	}
	return 8
}

// MaxPoints caps the points of a field built from untrusted bytes: an
// SDF1 body (fieldio.Read), and a decoded region and each chunk it
// intersects (codec.DecompressRegionFrom). A few-byte declaration past
// it is an error, never an allocation.
const MaxPoints = 1 << 31

// Field is a dense N-dimensional array of scalar values in row-major order
// (the last dimension varies fastest, matching C array layout and the SZ
// data model).
type Field struct {
	// Name identifies the field (e.g. "CLDHGH", "baryon_density").
	Name string
	// Dims holds the grid dimensions from slowest-varying to
	// fastest-varying. len(Dims) is 1, 2, or 3 for the compressors in
	// this module.
	Dims []int
	// Data holds the values in row-major order; len(Data) == product of
	// Dims.
	Data []float64
	// Precision records the source/storage precision of the values.
	Precision Precision
}

// New allocates a zero-filled field with the given name and dimensions.
// It panics if any dimension is non-positive; construction is a programmer
// decision, not an input-validation site.
func New(name string, prec Precision, dims ...int) *Field {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("field: non-positive dimension %d in %v", d, dims))
		}
		n *= d
	}
	return &Field{
		Name:      name,
		Dims:      append([]int(nil), dims...),
		Data:      make([]float64, n),
		Precision: prec,
	}
}

// FromData wraps an existing slice as a field. The slice is used directly
// (not copied). It returns an error if the dimensions do not match the
// slice length.
func FromData(name string, prec Precision, data []float64, dims ...int) (*Field, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("field: non-positive dimension %d in %v", d, dims)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("field: dims %v imply %d values, slice has %d", dims, n, len(data))
	}
	return &Field{Name: name, Dims: append([]int(nil), dims...), Data: data, Precision: prec}, nil
}

// Len returns the total number of values in the field.
func (f *Field) Len() int { return len(f.Data) }

// NDims returns the number of dimensions.
func (f *Field) NDims() int { return len(f.Dims) }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	out := &Field{
		Name:      f.Name,
		Dims:      append([]int(nil), f.Dims...),
		Data:      append([]float64(nil), f.Data...),
		Precision: f.Precision,
	}
	return out
}

// SameShape reports whether g has identical dimensions to f.
func (f *Field) SameShape(g *Field) bool {
	if len(f.Dims) != len(g.Dims) {
		return false
	}
	for i := range f.Dims {
		if f.Dims[i] != g.Dims[i] {
			return false
		}
	}
	return true
}

// At2 returns the value at row i, column j of a 2-D field.
func (f *Field) At2(i, j int) float64 { return f.Data[i*f.Dims[1]+j] }

// Set2 sets the value at row i, column j of a 2-D field.
func (f *Field) Set2(i, j int, v float64) { f.Data[i*f.Dims[1]+j] = v }

// At3 returns the value at (i, j, k) of a 3-D field.
func (f *Field) At3(i, j, k int) float64 {
	return f.Data[(i*f.Dims[1]+j)*f.Dims[2]+k]
}

// Set3 sets the value at (i, j, k) of a 3-D field.
func (f *Field) Set3(i, j, k int, v float64) {
	f.Data[(i*f.Dims[1]+j)*f.Dims[2]+k] = v
}

// ValueRange returns the minimum, maximum, and their difference
// (vr = max − min) over the field's data. A constant field has range 0.
// NaNs are skipped; if every value is NaN the range is (0, 0, 0).
//
// The scan is the runtime-dispatched kernels.MinMax — AVX2 on capable
// amd64 hosts, a four-lane unrolled loop elsewhere; NaNs need no
// explicit test because every comparison against them is false.
func (f *Field) ValueRange() (min, max, vr float64) {
	min, max = kernels.MinMax(f.Data)
	if min > max { // all NaN or empty
		return 0, 0, 0
	}
	return min, max, max - min
}

// RoundToFloat32 rounds every value to the nearest float32, in place, and
// marks the field as single precision. Synthetic generators use this to
// emulate the paper's single-precision data sets.
func (f *Field) RoundToFloat32() {
	for i, v := range f.Data {
		f.Data[i] = float64(float32(v))
	}
	f.Precision = Float32
}

// SizeBytes returns the nominal storage footprint of the field at its
// declared precision.
func (f *Field) SizeBytes() int { return f.Len() * f.Precision.Bytes() }

// Validate checks structural invariants (dims product matches data length,
// dims positive, 1–3 dimensions). It returns nil when the field is usable
// by the compressors in this module.
func (f *Field) Validate() error {
	if f == nil {
		return fmt.Errorf("field: nil field")
	}
	if len(f.Dims) == 0 || len(f.Dims) > 3 {
		return fmt.Errorf("field %q: unsupported rank %d (want 1..3)", f.Name, len(f.Dims))
	}
	n := 1
	for _, d := range f.Dims {
		if d <= 0 {
			return fmt.Errorf("field %q: non-positive dimension %d", f.Name, d)
		}
		n *= d
	}
	if n != len(f.Data) {
		return fmt.Errorf("field %q: dims %v imply %d values, have %d", f.Name, f.Dims, n, len(f.Data))
	}
	return nil
}

// String summarizes the field for logs and error messages.
func (f *Field) String() string {
	return fmt.Sprintf("%s %v %s", f.Name, f.Dims, f.Precision)
}
