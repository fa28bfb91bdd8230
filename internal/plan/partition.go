package plan

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Region-group steering: one field, several quality targets. A Partition
// maps the chunked container's row slabs onto named region groups — a
// region of interest held at a high fixed PSNR, the background steered to
// a cheap fixed ratio — and DriveGroups runs one Measure/Solve/accept
// loop per group over only that group's chunks, recompressing stale
// chunks selectively while every other group stays pinned. The global
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

// DriveGroups is the group-aware generalization of Drive: it takes the
// first full-field pass (compressed at the default group's bound), maps
// its chunks onto the partition's groups, and then runs every group's
// own Measure/Solve/accept loop over only that group's chunks. Region
// groups whose initial bound differs from the first pass's start with a
// recompression of their chunks at their own bound; from there each
// group's target steers exactly as in Drive, with exact chunks pinned
// across passes for distortion targets. Chunks outside a group are never
// touched by that group's passes.
//
// The returned stream is a version-4 grouped container: group table from
// the specs, per-chunk group IDs and quantization bounds, and the global
// Header.AggregateMSE accounting intact. Outcomes are reported in spec
// order.
func DriveGroups(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, blob []byte, part *Partition, vr float64, sc *codec.Scratch) ([]byte, *codec.Stats, []GroupOutcome, error) {
	cc, ok := c.(codec.ChunkCodec)
	if !ok {
		return nil, nil, nil, fmt.Errorf("plan: region groups need chunk-granular recompression: %w", codec.ErrNotChunked)
	}
	h, err := codec.ParseHeader(blob)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(h.Chunks) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: region groups need a chunked stream (codec %v wrote none)", h.Codec)
	}
	if len(part.ChunkGroup) != len(h.Chunks) {
		return nil, nil, nil, fmt.Errorf("plan: partition covers %d chunks, stream has %d", len(part.ChunkGroup), len(h.Chunks))
	}

	// Working state: the chunk table and payload slices of the stream
	// being steered. Recompression rewrites entries and payloads in
	// place; the final header is assembled once, after every group
	// settles. Grouped streams have no single field-level bound to fall
	// back to, so every chunk entry carries its own.
	work, payloads, err := workingCopy(h, blob)
	if err != nil {
		return nil, nil, nil, err
	}
	for ci := range work.Chunks {
		work.Chunks[ci].Group = part.ChunkGroup[ci]
	}

	copt := opt
	copt.Capacity = h.Capacity // keep the container's quantizer geometry across passes

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
		if len(subset) == 0 {
			out.EbAbs = h.EbAbs
			out.MSE = math.NaN()
			out.Ratio = math.NaN()
			continue
		}

		res, err := g.Request.Resolve(vr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
		}
		tgt := g.Request.BuildTarget(c, vr)
		var gt GroupTarget
		if tgt != nil {
			if gt, ok = tgt.(GroupTarget); !ok {
				return nil, nil, nil, fmt.Errorf("plan: group %q: target %s cannot steer a region group", g.Name, tgt.Describe())
			}
		}
		pin := tgt != nil && tgt.PinExactChunks()

		bound := h.EbAbs // the shared first pass ran at the default bound
		passes := 1
		if !g.Default && res.EbAbs != bound {
			// The group's own first pass: its chunks move to the group's
			// initial bound while every other group's chunks stay put.
			if err := recompressSubset(ctx, f, cc, copt, work, subset, payloads, res.EbAbs, pin, true, sc); err != nil {
				return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
			}
			bound = res.EbAbs
			passes++
		}
		if gt != nil {
			history := []Pass{{Bound: bound, Measured: gt.MeasureGroup(work, subset)}}
			for p := 0; p < tgt.MaxPasses(); p++ {
				next, done, err := gt.Solve(history)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
				}
				if done {
					break
				}
				if err := ctx.Err(); err != nil {
					return nil, nil, nil, err
				}
				if err := recompressSubset(ctx, f, cc, copt, work, subset, payloads, next, pin, true, sc); err != nil {
					return nil, nil, nil, fmt.Errorf("plan: group %q: %w", g.Name, err)
				}
				bound = next
				passes++
				history = append(history, Pass{Bound: next, Measured: gt.MeasureGroup(work, subset)})
			}
		}
		out.EbAbs = bound
		out.Passes = passes
		out.Points = work.GroupPoints(subset)
		out.PayloadBytes = work.GroupPayloadBytes(subset)
		out.MSE = work.GroupAggregateMSE(subset)
		out.Ratio = math.NaN()
		if orig := float64(out.Points) * float64(work.Precision.Bytes()); orig > 0 && out.PayloadBytes > 0 {
			out.Ratio = orig / float64(out.PayloadBytes)
		}
		if g.Default {
			work.EbAbs = bound
		}
	}

	work.Groups = make([]codec.GroupInfo, len(part.Specs))
	for gi := range part.Specs {
		work.Groups[gi] = codec.GroupInfo{
			Name:        part.Specs[gi].Name,
			Mode:        outcomes[gi].Mode.StreamMode(),
			TargetPSNR:  outcomes[gi].TargetPSNR,
			TargetRatio: outcomes[gi].TargetRatio,
		}
	}
	final, st, err := assemble(work, payloads)
	if err != nil {
		return nil, nil, nil, err
	}
	return final, st, outcomes, nil
}

// recompressSubset recompresses one chunk subset at a new bound, leaving
// every other chunk untouched. With pin set (distortion-steered
// targets), chunks whose recorded MSE is zero — exact at their current
// bound, so their error contribution is final — keep their payloads and
// entries verbatim; pinning is skipped entirely when any chunk in the
// subset lacks a measured MSE, because the pinning decision needs one.
//
// explicit selects the bound bookkeeping of recompressed entries: group
// steering records the bound in every chunk entry (grouped streams have
// no single field-level bound), while the field-wide loop leaves it 0 —
// "the header bound" — preserving the historical ungrouped entry layout
// byte for byte.
func recompressSubset(ctx context.Context, f *field.Field, cc codec.ChunkCodec, copt codec.Options, work *codec.Header, subset []int, payloads [][]byte, bound float64, pin, explicit bool, sc *codec.Scratch) error {
	if pin {
		for _, ci := range subset {
			if math.IsNaN(work.Chunks[ci].MSE) {
				pin = false
				break
			}
		}
	}
	if pin {
		// Exact at their recorded bound: payloads and entries stay.
		subset = slices.DeleteFunc(slices.Clone(subset), func(ci int) bool { return work.Chunks[ci].MSE == 0 })
	}
	copt.ErrorBound = bound
	if err := codec.CompressChunks(ctx, cc, work, subset, payloads, copt, sc, codec.FieldRows(f.Data)); err != nil {
		return err
	}
	for _, ci := range subset {
		work.Chunks[ci].EbAbs = 0
		if explicit {
			work.Chunks[ci].EbAbs = bound
		}
	}
	return nil
}
