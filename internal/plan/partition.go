package plan

import (
	"context"
	"fmt"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Region-group steering: one field, several quality targets. A Partition
// maps the chunked container's row slabs onto named region groups — a
// region of interest held at a high fixed PSNR, the background steered to
// a cheap fixed ratio — and DriveGroups runs the steering loop once per
// group over only that group's chunks, recompressing stale chunks
// selectively while every other group stays pinned. The global
// fixed-PSNR accounting is unchanged: the final stream's AggregateMSE is
// still the point-weighted mean over all chunks.

// GroupSpec is one region group's steering demand: the half-open row
// window it claims along the slowest dimension (region groups), or the
// default group that takes every unclaimed chunk.
type GroupSpec struct {
	// Name identifies the group in the stream's group table and in
	// results ("roi0", "background", ...).
	Name string
	// RowLo and RowHi bound the rows the group's region covers along
	// dims[0] (ignored for the default group). A chunk whose row span
	// intersects the window joins the group — region boundaries round
	// outward to chunk boundaries.
	RowLo, RowHi int
	// Request is the group's error-control demand; its mode and targets
	// are recorded in the stream's group table.
	Request Request
	// Default marks the field-level fallback group that claims every
	// chunk no region touches.
	Default bool
}

// Partition is the resolved chunk→group assignment for one stream: the
// group specs plus, per chunk, the index of the group that owns it.
type Partition struct {
	Specs []GroupSpec
	// ChunkGroup[ci] is the index into Specs of chunk ci's group.
	ChunkGroup []int
	// subsets[g] lists the chunk indices of group g, in chunk order.
	subsets [][]int
}

// Subset returns the chunk indices owned by group g.
func (p *Partition) Subset(g int) []int { return p.subsets[g] }

// BuildPartition assigns every chunk of a parsed chunk table to a group:
// a chunk joins the region group whose row window its rows intersect,
// and unclaimed chunks fall to the default group. A chunk claimed by two
// region groups is an error — region row windows are validated disjoint
// upstream, but two disjoint windows can still straddle one chunk, and
// silently splitting it would break both groups' guarantees. So is a
// claimed chunk with no default group to fall back to elsewhere.
func BuildPartition(h *codec.Header, specs []GroupSpec) (*Partition, error) {
	def := -1
	for gi := range specs {
		if specs[gi].Default {
			if def >= 0 {
				return nil, fmt.Errorf("plan: two default groups (%q and %q)", specs[def].Name, specs[gi].Name)
			}
			def = gi
		}
	}
	if def < 0 {
		return nil, fmt.Errorf("plan: partition needs a default group for unclaimed chunks")
	}
	p := &Partition{
		Specs:      specs,
		ChunkGroup: make([]int, len(h.Chunks)),
		subsets:    make([][]int, len(specs)),
	}
	for ci := range h.Chunks {
		ck := &h.Chunks[ci]
		lo, hi := ck.RowStart, ck.RowStart+ck.Rows
		owner := def
		for gi := range specs {
			g := &specs[gi]
			if g.Default || g.RowLo >= hi || g.RowHi <= lo {
				continue
			}
			if owner != def {
				return nil, fmt.Errorf(
					"plan: chunk %d (rows [%d,%d)) is claimed by regions %q and %q: region row windows must not share a chunk (smaller ChunkPoints separates them)",
					ci, lo, hi, specs[owner].Name, g.Name)
			}
			owner = gi
		}
		p.ChunkGroup[ci] = owner
		p.subsets[owner] = append(p.subsets[owner], ci)
	}
	return p, nil
}

// GroupOutcome reports one group's steering result: the bound it settled
// on, the group's final measured distortion and payload-based
// compression ratio, and the compression passes that touched the group's
// chunks (1 = the shared first pass was accepted as-is).
type GroupOutcome struct {
	Name        string
	Mode        Mode
	TargetPSNR  float64 // NaN unless the group steers on PSNR
	TargetRatio float64 // 0 unless the group steers on ratio
	EbAbs       float64 // absolute bound the group settled on
	// MSE is the group's point-weighted aggregate MSE (NaN when the
	// pipeline does not measure it).
	MSE float64
	// Ratio is the group's compression ratio on payload bytes: nominal
	// storage footprint over summed chunk payloads.
	Ratio        float64
	Passes       int
	Chunks       int
	Points       int
	PayloadBytes int
}

// DriveGroups steers each region group of a field on its own: it runs
// the first full-field pass at the default group's bound
// (opt.ErrorBound), maps its chunks onto the specs' groups
// (BuildPartition), and then hands every group's chunks to solve, the
// loop Drive runs field-wide. Region groups whose initial bound differs
// from the first pass's start with a recompression of their chunks at
// their own bound; from there each group's target measures and steers
// only the group's chunks, with exact chunks pinned across passes for
// distortion targets. Chunks outside a group are never touched by that
// group's passes.
//
// The shared first pass stops at quantization when the codec is a
// ChunkQuantizer. A group whose target reads bytes (fixed ratio)
// entropy-codes its chunks before each measure, measures their payload
// bytes without the header, and recompresses them in full; every other
// group's chunks stay quantized through its passes, and the final
// assembly entropy-codes them once.
//
// The returned stream is a version-4 grouped container: group table from
// the specs, per-chunk group IDs and quantization bounds, and the global
// Header.AggregateMSE accounting intact. Outcomes are reported in spec
// order.
func DriveGroups(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, specs []GroupSpec, vr float64, sc *codec.Scratch) ([]byte, *codec.Stats, []GroupOutcome, error) {
	s, err := steer(ctx, f, c, opt, nil, sc)
	if err != nil {
		return nil, nil, nil, err
	}
	defer s.d.Release()
	part, err := BuildPartition(s.d.Header, specs)
	if err != nil {
		return nil, nil, nil, err
	}

	// Working state: the Draft's chunk table, rewritten in place and
	// assembled once, after every group settles. Grouped streams have no
	// single field-level bound to fall back to, so every chunk entry
	// carries its own.
	work := s.d.Header
	first := work.EbAbs // the shared first pass ran at the default bound
	s.rebase()
	for ci := range work.Chunks {
		work.Chunks[ci].Group = part.ChunkGroup[ci]
	}

	outcomes := make([]GroupOutcome, len(part.Specs))
	for gi := range part.Specs {
		g := &part.Specs[gi]
		subset := part.Subset(gi)
		out := &outcomes[gi]
		out.Name = g.Name
		out.Mode = g.Request.Mode
		out.TargetPSNR = math.NaN()
		if g.Request.Mode == ModePSNR {
			out.TargetPSNR = g.Request.TargetPSNR
		}
		if g.Request.Mode == ModeRatio {
			out.TargetRatio = g.Request.TargetRatio
		}
		out.Chunks = len(subset)
		out.Ratio = math.NaN()
		if len(subset) == 0 {
			out.EbAbs = first
			out.MSE = math.NaN()
			continue
		}

		res, err := g.Request.Resolve(vr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
		}
		tgt := g.Request.BuildTarget(c, vr)
		bound := first
		passes := 1
		if !g.Default && res.EbAbs != bound {
			// The group's own first pass: its chunks move to the group's
			// initial bound while every other group's chunks stay put.
			if err := s.recompress(ctx, tgt, subset, res.EbAbs, true); err != nil {
				return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
			}
			bound = res.EbAbs
			passes++
		}
		if tgt != nil {
			b, n, err := solve(ctx, tgt, bound,
				func() (float64, error) { return s.measureGroup(ctx, tgt, subset) },
				func(bound float64) error { return s.recompress(ctx, tgt, subset, bound, true) })
			if err != nil {
				return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
			}
			bound = b
			passes += n - 1
		}
		out.EbAbs = bound
		out.Passes = passes
		out.Points = work.GroupPoints(subset)
		out.MSE = work.GroupAggregateMSE(subset)
		if g.Default {
			work.EbAbs = bound
		}
	}

	work.Groups = make([]codec.GroupInfo, len(part.Specs))
	for gi := range part.Specs {
		work.Groups[gi] = codec.GroupInfo{
			Name:        part.Specs[gi].Name,
			Mode:        outcomes[gi].Mode,
			TargetPSNR:  outcomes[gi].TargetPSNR,
			TargetRatio: outcomes[gi].TargetRatio,
		}
	}
	final, st, err := s.assemble(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	// Payload sizes are final only once every chunk is entropy-coded.
	for gi, out := range outcomes {
		if out.Chunks == 0 {
			continue
		}
		out.PayloadBytes = work.GroupPayloadBytes(part.Subset(gi))
		if orig := float64(out.Points) * float64(work.Precision.Bytes()); orig > 0 && out.PayloadBytes > 0 {
			out.Ratio = orig / float64(out.PayloadBytes)
		}
		outcomes[gi] = out
	}
	return final, st, outcomes, nil
}
