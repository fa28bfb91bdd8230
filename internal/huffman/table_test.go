package huffman

import (
	"encoding/binary"
	"slices"
	"testing"
)

// tableBytes writes a table header as parseTable reads it: the symbol
// count n, the entry count, then each (symbol, code length) entry.
func tableBytes(n uint64, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint(nil, n)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0])
		b = binary.AppendUvarint(b, e[1])
	}
	return b
}

// TestParseTableDuplicates runs the duplicate-symbol check over tables
// whose symbols fit the bitmap window and tables too sparse for it,
// sorted and foreign (unsorted) tables, and symbol 0 (the literal
// marker, counted outside the window). One DecodeScratch serves every
// case in turn, so a bitmap left dirty by an earlier table shows up as a
// false duplicate.
func TestParseTableDuplicates(t *testing.T) {
	const top = 1<<31 - 1
	cases := []struct {
		name    string
		entries [][2]uint64
		dup     bool
		sorted  bool // the window is too wide for the bitmap
	}{
		{"narrow", [][2]uint64{{0, 2}, {32767, 2}, {32768, 2}, {32769, 2}}, false, false},
		{"narrow again", [][2]uint64{{32767, 1}, {32768, 2}, {32770, 2}}, false, false},
		{"low end", [][2]uint64{{32767, 2}, {32768, 2}, {32767, 2}, {32770, 2}}, true, false},
		{"high end", [][2]uint64{{32767, 2}, {32770, 2}, {32768, 2}, {32770, 2}}, true, false},
		{"lengths differ", [][2]uint64{{40, 1}, {41, 2}, {40, 3}, {42, 3}}, true, false},
		{"two zeros", [][2]uint64{{0, 2}, {5, 2}, {0, 2}, {6, 2}}, true, false},
		{"only zero", [][2]uint64{{0, 1}}, false, false},
		{"wide", [][2]uint64{{1, 2}, {top, 2}, {0, 2}, {1 << 20, 2}}, false, true},
		{"wide low end", [][2]uint64{{1, 2}, {top, 2}, {1, 2}}, true, true},
		{"wide high end", [][2]uint64{{1, 2}, {top, 2}, {top, 3}}, true, true},
		{"foreign", [][2]uint64{{9, 3}, {5, 1}, {7, 2}, {8, 3}}, false, false},
		{"foreign dup", [][2]uint64{{9, 3}, {5, 1}, {9, 2}, {8, 3}}, true, false},
		{"foreign wide dup", [][2]uint64{{top, 3}, {5, 1}, {9, 2}, {top, 3}}, true, true},
	}
	ds := NewDecodeScratch()
	for _, tc := range cases {
		ds.dup = ds.dup[:0]
		_, csyms, clens, consumed, err := parseTable(tableBytes(8, tc.entries...), ds)
		if tc.dup {
			if err == nil || err.Error() != "huffman: duplicate symbols in table" {
				t.Errorf("%s: err = %v, want the duplicate-symbols error", tc.name, err)
			}
		} else {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			if consumed != len(tableBytes(8, tc.entries...)) {
				t.Errorf("%s: consumed %d bytes", tc.name, consumed)
			}
			// The canonical order: by length, then symbol.
			for i := 1; i < len(csyms); i++ {
				if clens[i] < clens[i-1] || clens[i] == clens[i-1] && csyms[i] <= csyms[i-1] {
					t.Errorf("%s: entries %d and %d out of canonical order", tc.name, i-1, i)
				}
			}
		}
		if sorted := len(ds.dup) > 0; sorted != tc.sorted {
			t.Errorf("%s: sorted copy used = %v, want %v", tc.name, sorted, tc.sorted)
		}
	}
}

// TestDuplicateCheckBounded pins the duplicate check's memory: a
// bitmap is never wider than dupWindowBits bits per table entry, and a
// table whose window would need more falls back to the sorted copy.
func TestDuplicateCheckBounded(t *testing.T) {
	for _, width := range []int{1, 63, 64, 65, 127, 128, 129, 1000} {
		// Three symbols spanning width: the bitmap holds when width ≤
		// 3·dupWindowBits.
		syms := []int32{100, int32(100 + width/2), int32(100 + width - 1)}
		if width == 1 {
			syms = syms[:1]
		}
		ds := NewDecodeScratch()
		if ds.hasDuplicates(syms) {
			t.Fatalf("width %d: duplicate reported in %v", width, syms)
		}
		if bits := 64 * len(ds.seen); bits > dupWindowBits*len(syms)+63 {
			t.Errorf("width %d: %d-bit bitmap for %d symbols", width, bits, len(syms))
		}
		wantSort := width > dupWindowBits*len(syms)
		if gotSort := len(ds.dup) > 0; gotSort != wantSort {
			t.Errorf("width %d: sorted copy used = %v, want %v", width, gotSort, wantSort)
		}
		if !ds.hasDuplicates(append(slices.Clone(syms), syms[len(syms)-1])) {
			t.Errorf("width %d: duplicate of the top symbol missed", width)
		}
	}
}
