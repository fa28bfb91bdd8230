package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

// Acceptance bands a steered encode must land in to count as on target:
// the encoder's own defaults (Options.ToleranceDB, RatioTolerance).
const (
	psnrBandDB = 0.5
	ratioBand  = 0.05
)

// psnrNoiseDB is how far a PSNR recomputed from the decoded field may
// differ from the Result.MeasuredPSNR the encoder reported: the two sum
// the same squared errors in different orders, so they agree to
// floating-point noise, far below any steering tolerance.
const psnrNoiseDB = 1e-6

// sweepCase is one encoder configuration a sweep applies to every field.
type sweepCase struct {
	label       string
	opts        []fixedpsnr.Option
	targetPSNR  float64 // 0 unless the case steers to a PSNR
	targetRatio float64 // 0 unless the case steers to a ratio
}

// sweep is the shared body of the encode workloads: each repetition runs
// every case over every field with a fresh Encoder per case (so solver
// warm starts never carry over), times each Encode and Decode call on
// its own, and checks every stream after its timers stop.
type sweep struct {
	fields []*fixedpsnr.Field
	cases  []sweepCase
	dec    *fixedpsnr.Decoder
	tl     *tally
}

// sweepPhase accumulates one phase (untraced or traced) of a sweep.
type sweepPhase struct {
	reps       int
	raw        float64     // bytes per repetition (float32 footprint)
	encCall    [][]float64 // per call slot (case-major, field-minor): Encode time in each repetition, s
	decCall    [][]float64 // the same for Decode
	encTotalS  float64     // every Encode call, summed
	encCalls   int         // Encode calls made
	outBytes   int64       // stream bytes of the last repetition
	encodes    int
	passes     int
	steered    int // encodes with a PSNR or ratio target
	inBand     int
	psnrErr    []float64 // |recomputed PSNR − target|, dB
	ratioErr   []float64 // |achieved/target − 1|, percent
	allocBytes uint64    // heap bytes allocated inside Encode (traced only)
	gcCycles   uint32    // GC cycles completed inside Encode (traced only)
	cpuS       float64   // process CPU time inside Encode (traced only)
	last       []encoded // streams of the last repetition
	steal      float64   // share of machine CPU time stolen during the phase
}

// encoded is one stream with the field it encodes.
type encoded struct {
	f    *fixedpsnr.Field
	blob []byte
}

// synthFields synthesizes every field of the data sets, with the data-set
// name salted by the workload seed so each seed gives different inputs.
func synthFields(seed int64, nproc int, sets ...*datagen.Dataset) ([]*fixedpsnr.Field, error) {
	var out []*fixedpsnr.Field
	for _, ds := range sets {
		salt := fmt.Sprintf("%s/seed=%d", ds.Name, seed)
		for _, spec := range ds.Specs {
			f, err := datagen.Synthesize(salt, spec, ds.Dims, nproc)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// run repeats the sweep for d and returns the phase totals. With a
// tracer, every call gets a span and the allocation, GC and CPU counters
// are read around each Encode.
func (s *sweep) run(d time.Duration, tr *tracer) (*sweepPhase, error) {
	ph := &sweepPhase{}
	for _, f := range s.fields {
		ph.raw += float64(4 * len(f.Data))
	}
	ph.raw *= float64(len(s.cases))
	c0 := readCPUStat()
	err := loopFor(d, func() error { return s.rep(ph, tr) })
	ph.steal = stealShare(c0, readCPUStat())
	return ph, err
}

// rep runs one repetition: every case over every field.
func (s *sweep) rep(ph *sweepPhase, tr *tracer) error {
	ctx := context.Background()
	slot := 0
	ph.last = ph.last[:0]
	ph.outBytes = 0
	for _, c := range s.cases {
		enc, err := fixedpsnr.NewEncoder(c.opts...)
		if err != nil {
			return err
		}
		root := tr.begin("sweep."+c.label, -1)
		for _, f := range s.fields {
			var ms0, ms1 runtime.MemStats
			var cpu0 float64
			if tr != nil {
				runtime.ReadMemStats(&ms0)
				cpu0 = cpuSeconds()
			}
			sp := tr.begin("fixedpsnr.encode", root)
			t0 := time.Now()
			blob, res, encErr := enc.Encode(ctx, f)
			et := time.Since(t0).Seconds()
			tr.end(sp)
			if tr != nil {
				ph.cpuS += cpuSeconds() - cpu0
				runtime.ReadMemStats(&ms1)
				ph.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				ph.gcCycles += ms1.NumGC - ms0.NumGC
			}
			if encErr != nil {
				s.tl.fail("%s %s: encode: %v", c.label, f.Name, encErr)
				continue
			}
			sp = tr.begin("fixedpsnr.decode", root)
			t1 := time.Now()
			g, _, decErr := s.dec.Decode(ctx, blob)
			dt := time.Since(t1).Seconds()
			tr.end(sp)

			sp = tr.begin("bench.check", root)
			s.check(ph, c, f, blob, res, g, decErr)
			tr.end(sp)
			if slot == len(ph.encCall) {
				ph.encCall = append(ph.encCall, nil)
				ph.decCall = append(ph.decCall, nil)
			}
			ph.encCall[slot] = append(ph.encCall[slot], et)
			ph.decCall[slot] = append(ph.decCall[slot], dt)
			slot++
			ph.encTotalS += et
			ph.encCalls++
			ph.outBytes += int64(len(blob))
			ph.last = append(ph.last, encoded{f, blob})
		}
		tr.end(root)
	}
	ph.reps++
	return nil
}

// typicalRep is the time of a typical repetition: the sum over call
// slots of each slot's median time across repetitions, so a disturbance
// that slows a few calls moves no slot's median.
func typicalRep(calls [][]float64) float64 {
	var t float64
	for _, c := range calls {
		t += median(c)
	}
	return t
}

// check verifies one encode/decode pair from the decoded field and the
// actual stream bytes, never from the encoder's own report alone, and
// accumulates the steering outcome.
func (s *sweep) check(ph *sweepPhase, c sweepCase, f *fixedpsnr.Field, blob []byte, res *fixedpsnr.Result, g *fixedpsnr.Field, decErr error) {
	name := c.label + " " + f.Name
	if decErr != nil {
		s.tl.fail("%s: decode: %v", name, decErr)
		return
	}
	if len(blob) != res.CompressedBytes {
		s.tl.fail("%s: stream is %d bytes, result says %d", name, len(blob), res.CompressedBytes)
		return
	}
	if len(g.Data) != len(f.Data) || fmt.Sprint(g.Dims) != fmt.Sprint(f.Dims) {
		s.tl.fail("%s: decoded dims %v, want %v", name, g.Dims, f.Dims)
		return
	}
	d := fixedpsnr.CompareFields(f, g)
	if !math.IsNaN(res.MeasuredPSNR) && math.Abs(d.PSNR-res.MeasuredPSNR) > psnrNoiseDB {
		s.tl.fail("%s: recomputed PSNR %.9f dB, encoder measured %.9f dB", name, d.PSNR, res.MeasuredPSNR)
		return
	}
	s.tl.ok()
	ph.encodes++
	ph.passes += res.Passes
	ratio := float64(4*len(f.Data)) / float64(len(blob))
	switch {
	case c.targetPSNR > 0:
		e := math.Abs(d.PSNR - c.targetPSNR)
		ph.psnrErr = append(ph.psnrErr, e)
		ph.steered++
		if e <= psnrBandDB {
			ph.inBand++
		}
	case c.targetRatio > 0:
		e := math.Abs(ratio/c.targetRatio - 1)
		ph.ratioErr = append(ph.ratioErr, 100*e)
		ph.steered++
		if e <= ratioBand {
			ph.inBand++
		}
	}
}

// endToEnd fills the untraced metrics of a sweep phase, every time
// corrected for the CPU time stolen during the phase (runShare).
func (ph *sweepPhase) endToEnd(m map[string]float64, rep *report) {
	run := runShare(ph.steal)
	enc, dec := run*typicalRep(ph.encCall), run*typicalRep(ph.decCall)
	m["encode_mbps"] = ph.raw / 1e6 / enc
	m["decode_mbps"] = ph.raw / 1e6 / dec
	lat := ph.latency()
	m["op_p50_ms"] = run * lat.P50
	m["op_tail_ms"] = run * lat.Tail
	m["ops_per_s"] = float64(len(ph.encCall)) / (enc + dec)
	m["ratio"] = ph.raw / float64(ph.outBytes)
	rep.note("%d repetitions; Decode latency over %d call slots: p50 %.3f ms, p%g %.3f ms; %.1f%% of CPU time stolen (metrics corrected)",
		ph.reps, lat.N, run*lat.P50, lat.TailPct, run*lat.Tail, 100*ph.steal)
}

// latency summarizes the time to read one field back, Decode, over the
// call slots, each slot at its median across repetitions (ms), so a
// hypervisor burst that slows a few calls moves no slot. Encode latency
// is not used: its tail is set by how many steering passes the worst
// fields of a seed happen to need, which varies more across seeds than
// any bound could absorb; encode_mbps and plan.passes_per_encode carry
// the encode side.
func (ph *sweepPhase) latency() latencySummary {
	ms := make([]float64, len(ph.decCall))
	for i, c := range ph.decCall {
		ms[i] = 1000 * median(c)
	}
	return summarize(ms)
}

// layerMetrics fills the traced per-layer metrics of a sweep phase that
// belong to the fixedpsnr, plan and parallel layers.
func (ph *sweepPhase) layerMetrics(m map[string]float64, nproc int) {
	m["fixedpsnr.encode_s"] = typicalRep(ph.encCall)
	m["fixedpsnr.decode_s"] = typicalRep(ph.decCall)
	if ph.encCalls > 0 {
		m["fixedpsnr.alloc_mb_per_encode"] = float64(ph.allocBytes) / 1e6 / float64(ph.encCalls)
	}
	if ph.reps > 0 {
		m["fixedpsnr.gc_cycles"] = float64(ph.gcCycles) / float64(ph.reps)
	}
	if ph.encodes > 0 {
		m["plan.passes_per_encode"] = float64(ph.passes) / float64(ph.encodes)
	}
	if ph.steered > 0 {
		m["plan.in_band_frac"] = float64(ph.inBand) / float64(ph.steered)
		m["plan.target_miss_frac"] = 1 - m["plan.in_band_frac"]
	}
	if ph.passes > 0 {
		m["plan.pass_s"] = ph.encTotalS / float64(ph.passes)
	}
	if len(ph.psnrErr) > 0 {
		m["plan.psnr_err_db"] = mean(ph.psnrErr)
	}
	if len(ph.ratioErr) > 0 {
		m["plan.ratio_err_pct"] = mean(ph.ratioErr)
	}
	if ph.encTotalS > 0 {
		m["parallel.busy_frac"] = ph.cpuS / (ph.encTotalS * float64(nproc))
	}
	lat := ph.latency()
	m["trace.op_samples"] = float64(lat.N)
	m["trace.tail_pct"] = lat.TailPct
	m["trace.steal_pct"] = 100 * ph.steal
}

// meanOpS is the typical time of one field's Encode plus Decode,
// steal-corrected: the primary operation the tracing overhead is
// measured on.
func (ph *sweepPhase) meanOpS() float64 {
	return runShare(ph.steal) * (typicalRep(ph.encCall) + typicalRep(ph.decCall)) / float64(len(ph.encCall))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
