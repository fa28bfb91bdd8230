// Package fieldio persists fields in a small self-describing binary
// format ("SDF1"), the on-disk representation used by the CLI tools:
//
//	magic "SDF1"        4 bytes
//	precision           1 byte (0 = float32, 1 = float64)
//	name                uvarint length + bytes
//	ndims, dims...      uvarints
//	values              little-endian IEEE-754 at the declared precision
//
// The format exists so the compressor CLI can round-trip data sets without
// external dependencies; it is deliberately minimal (no chunking, no
// attributes).
package fieldio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"fixedpsnr/internal/field"
)

// Magic identifies a field file.
var Magic = [4]byte{'S', 'D', 'F', '1'}

// Write serializes the field to w at its declared precision.
func Write(w io.Writer, f *field.Field) error {
	if err := f.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(f.Precision)); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(f.Name)))
	hdr = append(hdr, f.Name...)
	hdr = binary.AppendUvarint(hdr, uint64(len(f.Dims)))
	for _, d := range f.Dims {
		hdr = binary.AppendUvarint(hdr, uint64(d))
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var buf [8]byte
	if f.Precision == field.Float32 {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(float32(v)))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	} else {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a field written by Write.
func Read(r io.Reader) (*field.Field, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("fieldio: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("fieldio: bad magic %q", magic[:])
	}
	precByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	prec := field.Precision(precByte)
	if prec != field.Float32 && prec != field.Float64 {
		return nil, fmt.Errorf("fieldio: unknown precision %d", precByte)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("fieldio: reading name length: %w", err)
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("fieldio: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	ndims, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ndims == 0 || ndims > 3 {
		return nil, fmt.Errorf("fieldio: unsupported rank %d", ndims)
	}
	dims := make([]int, ndims)
	total := 1
	for i := range dims {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<32 {
			return nil, fmt.Errorf("fieldio: bad dimension %d", d)
		}
		dims[i] = int(d)
		// Test before multiplying: a product past the cap may overflow.
		if dims[i] > (1<<31)/total {
			return nil, fmt.Errorf("fieldio: field too large (%v)", dims)
		}
		total *= dims[i]
	}
	// A declared size is only a claim: never allocate more than the body
	// can hold. When the reader knows how many bytes remain (a
	// bytes.Reader holding a request body), a size past them is rejected
	// before allocating; otherwise the values grow as they arrive.
	size := prec.Bytes()
	capacity := total
	if lr, ok := r.(interface{ Len() int }); ok {
		if left := lr.Len() + br.Buffered(); total > left/size {
			return nil, fmt.Errorf("fieldio: %v field needs %d value bytes, body has %d", dims, total*size, left)
		}
	} else {
		capacity = min(total, 1<<16)
	}
	data := make([]float64, 0, capacity)
	buf := make([]byte, size*4096)
	for len(data) < total {
		off, n := len(data), min(4096, total-len(data))
		if _, err := io.ReadFull(br, buf[:n*size]); err != nil {
			return nil, fmt.Errorf("fieldio: reading values: %w", err)
		}
		data = slices.Grow(data, n)[:off+n]
		dst := data[off:]
		if prec == field.Float32 {
			for i := range dst {
				dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
			}
		} else {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
	}
	return &field.Field{Name: string(nameBuf), Precision: prec, Dims: dims, Data: data}, nil
}

// WriteFile writes the field to path, creating parent directories.
func WriteFile(path string, f *field.Field) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(w, f); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadFile reads a field from path.
func ReadFile(path string) (*field.Field, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Read(r)
}
