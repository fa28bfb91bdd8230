package serve

import (
	"fmt"
	"strconv"
	"strings"

	"fixedpsnr"
)

// Mode, compressor, region and ROI spec parsing, shared by the fpsz CLI
// flags and the server's query parameters so both surfaces speak one
// syntax:
//
//	mode:       Mode.String's names       abs, rel, psnr, ratio, pwrel
//	compressor: Compressor.String's names sz, transform, wavelet
//	region:     "off:ext[,off:ext...]"    one off:ext pair per dimension
//	roi:        "<region>=psnr:<dB>"      region steered to a fixed PSNR
//	            "<region>=ratio:<R>"      region steered to a fixed ratio

// byName returns the value among all whose String is name.
func byName[T fmt.Stringer](kind, name string, all ...T) (T, error) {
	for _, v := range all {
		if v.String() == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want one of %v)", kind, name, all)
}

// ParseCompressor returns the compressor Compressor.String names name.
func ParseCompressor(name string) (fixedpsnr.Compressor, error) {
	return byName("compressor", name, fixedpsnr.CompressorSZ, fixedpsnr.CompressorTransform, fixedpsnr.CompressorWavelet)
}

// SetMode sets opt.Mode to the mode Mode.String names name, and stores
// the bound that mode reads: eb for abs, rel and pwrel, psnr for psnr,
// ratio for ratio.
func SetMode(opt *fixedpsnr.Options, name string, eb, psnr, ratio float64) error {
	m, err := byName("mode", name, fixedpsnr.ModeAbs, fixedpsnr.ModeRel, fixedpsnr.ModePSNR, fixedpsnr.ModeRatio, fixedpsnr.ModePWRel)
	if err != nil {
		return err
	}
	opt.Mode = m
	switch m {
	case fixedpsnr.ModeAbs:
		opt.ErrorBound = eb
	case fixedpsnr.ModeRel:
		opt.RelBound = eb
	case fixedpsnr.ModePSNR:
		opt.TargetPSNR = psnr
	case fixedpsnr.ModeRatio:
		opt.TargetRatio = ratio
	case fixedpsnr.ModePWRel:
		opt.PWRelBound = eb
	}
	return nil
}

// ParseRegionSpec parses "off:ext,off:ext,..." into offset and extent
// vectors, one pair per dimension.
func ParseRegionSpec(s string) (off, ext []int, err error) {
	for _, part := range strings.Split(s, ",") {
		o, e, ok := strings.Cut(part, ":")
		if !ok {
			return nil, nil, fmt.Errorf("region %q: want off:ext per dimension", s)
		}
		ov, err1 := strconv.Atoi(strings.TrimSpace(o))
		ev, err2 := strconv.Atoi(strings.TrimSpace(e))
		if err1 != nil || err2 != nil || ov < 0 || ev <= 0 {
			return nil, nil, fmt.Errorf("region %q: bad component %q", s, part)
		}
		off = append(off, ov)
		ext = append(ext, ev)
	}
	return off, ext, nil
}

// ParseIntList parses "a,b,c" into ints — the query-parameter spelling of
// an offset or extent vector.
func ParseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// ParseROISpec parses one region-target spec,
// "off:ext[,off:ext...]=psnr:<dB>" or "...=ratio:<R>".
func ParseROISpec(s string) (fixedpsnr.RegionTarget, error) {
	var rt fixedpsnr.RegionTarget
	regionPart, targetPart, ok := strings.Cut(s, "=")
	if !ok {
		return rt, fmt.Errorf(`roi %q: want "off:ext[,off:ext...]=psnr:<dB>" or "...=ratio:<R>"`, s)
	}
	off, ext, err := ParseRegionSpec(regionPart)
	if err != nil {
		return rt, fmt.Errorf("roi: %w", err)
	}
	kind, valStr, ok := strings.Cut(targetPart, ":")
	if !ok {
		return rt, fmt.Errorf("roi %q: target %q: want psnr:<dB> or ratio:<R>", s, targetPart)
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
	if err != nil {
		return rt, fmt.Errorf("roi %q: bad target value %q", s, valStr)
	}
	rt.Region = fixedpsnr.Region{Off: off, Ext: ext}
	switch strings.TrimSpace(kind) {
	case "psnr":
		rt.Mode, rt.TargetPSNR = fixedpsnr.ModePSNR, val
	case "ratio":
		rt.Mode, rt.TargetRatio = fixedpsnr.ModeRatio, val
	default:
		return rt, fmt.Errorf("roi %q: unknown target kind %q (want psnr or ratio)", s, kind)
	}
	return rt, nil
}
