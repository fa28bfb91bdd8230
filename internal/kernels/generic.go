package kernels

import "math"

// roundMagic implements round-to-nearest (ties to even) by pushing the
// value into the [2^52, 2^53) binade; it must stay equal to
// quantizer.RoundMagic (asserted by TestRoundMagicMatchesQuantizer).
const roundMagic = 3 << 51

// minMaxLanes is MinMax's accumulator width. Sixteen float64 lanes are
// four YMM registers per accumulator in the AVX2 form — enough
// independent VMINPD/VMAXPD chains to turn the scan memory-bound. The
// lane assignment (lane = i mod 16, tail into lane 0, lanes merged in
// ascending order) is part of the kernel spec: a different width or
// merge order can change which of several equal ±0 extrema wins.
const minMaxLanes = 16

// minMaxGeneric is the portable MinMax.
func minMaxGeneric(data []float64) (min, max float64) {
	var mins, maxs [minMaxLanes]float64
	for l := range mins {
		mins[l] = math.Inf(1)
		maxs[l] = math.Inf(-1)
	}
	i := 0
	for ; i+minMaxLanes <= len(data); i += minMaxLanes {
		blk := data[i : i+minMaxLanes : i+minMaxLanes]
		for l, v := range blk {
			if v < mins[l] {
				mins[l] = v
			}
			if v > maxs[l] {
				maxs[l] = v
			}
		}
	}
	for ; i < len(data); i++ {
		v := data[i]
		if v < mins[0] {
			mins[0] = v
		}
		if v > maxs[0] {
			maxs[0] = v
		}
	}
	min, max = mins[0], maxs[0]
	for l := 1; l < minMaxLanes; l++ {
		if mins[l] < min {
			min = mins[l]
		}
	}
	for l := 1; l < minMaxLanes; l++ {
		if maxs[l] > max {
			max = maxs[l]
		}
	}
	return min, max
}

// countLanes4Generic is the portable CountLanes4: the historical
// interleaved counting loop from internal/huffman, widened from two
// lanes to four (lane = i mod 4, tail symbols into lanes 0.. in order).
func countLanes4Generic(l0, l1, l2, l3 []int64, syms []int32) {
	i := 0
	for ; i+4 <= len(syms); i += 4 {
		l0[syms[i]]++
		l1[syms[i+1]]++
		l2[syms[i+2]]++
		l3[syms[i+3]]++
	}
	if i < len(syms) {
		l0[syms[i]]++
		i++
	}
	if i < len(syms) {
		l1[syms[i]]++
		i++
	}
	if i < len(syms) {
		l2[syms[i]]++
	}
}

// codeWindowGeneric is the portable CodeWindow. Unsigned s−1 wraps code
// 0 to the largest uint32, so zeros never win the minimum.
func codeWindowGeneric(syms []int32) (lo, hi int32) {
	m := ^uint32(0)
	for _, s := range syms {
		m = min(m, uint32(s)-1)
		hi = max(hi, s)
	}
	return int32(m + 1), hi
}

// countZerosGeneric is the portable CountZeros.
func countZerosGeneric(codes []int32) int {
	n := 0
	for _, c := range codes {
		if c == 0 {
			n++
		}
	}
	return n
}

// pqRowGeneric is the reference fused predict+quantize row loop. Keep
// the operation order in sync with quantizer.QuantizeRecon and the
// assembly kernels: prediction sums left-to-right, binning via one
// math.FMA against roundMagic, rec as a plain multiply, and the bound
// enforced on the reconstruction itself (NaN/Inf fail the comparisons
// and fall to the literal path naturally).
func pqRowGeneric(q *Quant, a *PQRow) {
	n := len(a.Data)
	if n == 0 {
		return
	}
	da, ra := a.Data[:n], a.Recon[:n]
	ca := a.Codes[:n]
	ua, pla, pua := a.Up[:n], a.Pl[:n], a.Pu[:n]
	la := a.Lits
	invDelta, delta, eb, radiusF := q.InvDelta, q.Delta, q.EB, q.RadiusF
	radius := int(q.Radius)
	ssum := a.SumSq
	pred := pla[0] + ua[0] - pua[0]
	for k := 0; k < n; k++ {
		v := da[k]
		diff := v - pred
		idx := math.FMA(diff, invDelta, roundMagic) - roundMagic
		rec := idx * delta
		e := diff - rec
		if idx < radiusF && idx > -radiusF && e <= eb && e >= -eb {
			ca[k] = int32(int(idx) + radius)
			ra[k] = pred + rec
			ssum += e * e
		} else {
			la = append(la, v)
			ca[k] = 0
			ra[k] = v
		}
		if k+1 < n {
			pred = pla[k+1] + ua[k+1] + ra[k] - pua[k+1] - pla[k] - ua[k] + pua[k]
		}
	}
	a.SumSq, a.Lits = ssum, la
}

// The generic grouped forms run their rows serially: the rows are
// independent, so the outputs are identical to the single-row loop by
// construction, and the Go compiler makes a hash of an interleaved
// source form anyway (two rows' worth of live floats spill past the
// fifteen usable XMM registers and the interleave runs slower than the
// serial loop — measured, not guessed). The assembly forms interleave
// for real; see pq_amd64.s.

func pqRows2Generic(q *Quant, a, b *PQRow) {
	pqRowGeneric(q, a)
	pqRowGeneric(q, b)
}

func pqRows4Generic(q *Quant, a, b, c, d *PQRow) {
	pqRowGeneric(q, a)
	pqRowGeneric(q, b)
	pqRowGeneric(q, c)
	pqRowGeneric(q, d)
}

// reconRowGeneric is the reference row reconstruction loop;
// operation order matches the historical internal/sz decode fast path
// (and therefore the encoder's recon updates) exactly.
func reconRowGeneric(q *Quant, a *RRRow) {
	n := len(a.Out)
	if n == 0 {
		return
	}
	out := a.Out[:n]
	ca := a.Codes[:n]
	ua, pla, pua := a.Up[:n], a.Pl[:n], a.Pu[:n]
	lits := a.Lits
	delta := q.Delta
	radius := int(q.Radius)
	li := 0
	if c := ca[0]; c == 0 {
		out[0] = lits[li]
		li++
	} else {
		out[0] = pla[0] + ua[0] - pua[0] + float64(int(c)-radius)*delta
	}
	for k := 1; k < n; k++ {
		c := ca[k]
		if c == 0 {
			out[k] = lits[li]
			li++
			continue
		}
		pred := pla[k] + ua[k] + out[k-1] - pua[k] - pla[k-1] - ua[k-1] + pua[k-1]
		out[k] = pred + float64(int(c)-radius)*delta
	}
}

func reconRows2Generic(q *Quant, a, b *RRRow) {
	reconRowGeneric(q, a)
	reconRowGeneric(q, b)
}

func reconRows4Generic(q *Quant, a, b, c, d *RRRow) {
	reconRowGeneric(q, a)
	reconRowGeneric(q, b)
	reconRowGeneric(q, c)
	reconRowGeneric(q, d)
}
