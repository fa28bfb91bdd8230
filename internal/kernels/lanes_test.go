package kernels

import "testing"

// TestLaneLens4 pins the lane length formula against the definition:
// lane i of an n-symbol slice holds the positions congruent to i mod 4.
func TestLaneLens4(t *testing.T) {
	for n := 0; n <= 64; n++ {
		c0, c1, c2, c3 := LaneLens4(n)
		var want [4]int
		for i := 0; i < n; i++ {
			want[i%4]++
		}
		if got := [4]int{c0, c1, c2, c3}; got != want {
			t.Fatalf("LaneLens4(%d) = %v, want %v", n, got, want)
		}
		if c0+c1+c2+c3 != n {
			t.Fatalf("LaneLens4(%d) sums to %d", n, c0+c1+c2+c3)
		}
	}
}

// FuzzLaneSplit checks LaneSplit4 slot by slot against the lane
// definition on fuzzer-chosen lengths — the byte count is the symbol
// count, so every tail shape (0–3 mod 4) comes up without generator
// cooperation. Symbol values encode their own position, so a symbol
// landing in the wrong lane or slot can never alias a correct one.
func FuzzLaneSplit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 2, 3, 4})
	seed := make([]byte, 37) // 1 mod 4, spans several 4-blocks
	for i := range seed {
		seed[i] = byte(i * 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		syms := make([]int32, len(raw))
		for i, b := range raw {
			syms[i] = int32(i)<<8 | int32(b)
		}
		c0, c1, c2, c3 := LaneLens4(len(syms))
		lanes := [4][]int32{
			make([]int32, c0), make([]int32, c1),
			make([]int32, c2), make([]int32, c3),
		}
		LaneSplit4(lanes[0], lanes[1], lanes[2], lanes[3], syms)
		for i, s := range syms {
			if got := lanes[i%4][i/4]; got != s {
				t.Fatalf("lane %d slot %d holds %#x, want syms[%d] = %#x", i%4, i/4, got, i, s)
			}
		}
	})
}
