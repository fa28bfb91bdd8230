package kernels

// Lane split for the four-lane interleaved Huffman payloads
// (internal/huffman EncodeLanes4/DecodeLanes4Into): lane i of a symbol
// slice holds positions i, i+4, i+8, … — the same assignment
// CountLanes4 accumulates by, so the frequency count's lanes are
// exactly the emission lanes. LaneSplit4 is the reference semantics of
// that assignment: EncodeLanes4 fuses the split into its emit loop, and
// internal/huffman's tests check the fused emit against LaneSplit4.

// LaneSplit4 scatters syms into four lane slices: lane i receives
// syms[i], syms[i+4], syms[i+8], …. The lane slices must have exactly
// the lane lengths LaneLens4 reports for len(syms); they must not alias
// syms.
func LaneSplit4(l0, l1, l2, l3 []int32, syms []int32) {
	i := 0
	for ; i+4 <= len(syms); i += 4 {
		l0[i>>2] = syms[i]
		l1[i>>2] = syms[i+1]
		l2[i>>2] = syms[i+2]
		l3[i>>2] = syms[i+3]
	}
	if i < len(syms) {
		l0[i>>2] = syms[i]
		i++
	}
	if i < len(syms) {
		l1[i>>2] = syms[i]
		i++
	}
	if i < len(syms) {
		l2[i>>2] = syms[i]
	}
}

// LaneLens4 returns the four lane lengths for an n-symbol slice under
// the i-mod-4 lane assignment: lane i holds ⌈(n−i)/4⌉ symbols.
func LaneLens4(n int) (c0, c1, c2, c3 int) {
	return (n + 3) / 4, (n + 2) / 4, (n + 1) / 4, n / 4
}
