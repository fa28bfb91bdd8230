package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/fieldio"
)

// Server is the archive catalog service: a long-running HTTP daemon over
// a directory of .fpsa archives, exercising the random-access machinery
// (tail index, chunk-granular byte-range reads, per-group quality
// metadata) the way in-situ analysis consumers do.
//
// Endpoints (all field payloads travel as SDF1, the fieldio format):
//
//	GET  /v1/archives                                 catalog listing (JSON)
//	GET  /v1/archives/{name}                          raw archive download
//	GET  /v1/archives/{name}/fields                   field listing (JSON)
//	PUT  /v1/archives/{name}/fields/{field}           upload-and-compress
//	GET  /v1/archives/{name}/fields/{field}           full decode
//	GET  /v1/archives/{name}/fields/{field}/region    ranged ROI decode
//	GET  /v1/archives/{name}/fields/{field}/info      chunk/group inspection (JSON)
//	GET  /metrics, /healthz, /debug/pprof/            control plane (never queued)
//
// PUT query parameters select the compression configuration: mode
// (psnr|ratio|abs|rel|pwrel), psnr, ratio, eb, compressor, chunkpoints,
// and repeatable roi specs ("off:ext,...=psnr:80"). Region reads
// take off=o1,o2,... and ext=e1,e2,... vectors.
//
// Region reads run through the library's chunk decoder
// (codec.DecompressRegionFrom) with a size-bounded LRU of decoded chunk
// slabs as its slab source: misses decode in parallel, with singleflight
// dedup across concurrent requests. Every data-plane request passes
// the bounded-concurrency admission layer and carries its request
// context through the decode, so a dropped client aborts the work.
type Server struct {
	cfg     Config
	cat     *Catalog
	cache   *ChunkCache
	met     *Metrics
	lim     *Limiter
	scratch *codec.Scratch
	handler http.Handler

	encMu sync.Mutex
	encs  map[string]*fixedpsnr.Encoder
}

// NewServer builds the service over cfg.Root. The catalog is scanned at
// construction; archives appearing on disk later are not picked up (use
// PUT to add archives at runtime).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cat, err := NewCatalog(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cat:     cat,
		cache:   NewChunkCache(cfg.CacheBytes),
		met:     NewMetrics(),
		lim:     NewLimiter(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueTimeout, nil),
		scratch: codec.NewScratch(),
		encs:    make(map[string]*fixedpsnr.Encoder),
	}
	s.lim.met = s.met
	s.handler = s.buildMux()
	return s, nil
}

// Catalog exposes the underlying catalog (the bench seeds archives
// through it directly).
func (s *Server) Catalog() *Catalog { return s.cat }

// CacheStats snapshots the decoded-chunk cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Metrics exposes the server's counters (the load-test bench reads shed
// totals from here).
func (s *Server) Metrics() *Metrics { return s.met }

// Handler returns the root handler (data plane behind admission,
// control plane in front of it).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	data := func(route string, h http.HandlerFunc) http.Handler {
		return s.instrument(route, s.lim.Wrap(h))
	}
	mux.Handle("GET /v1/archives", data("list_archives", s.handleListArchives))
	mux.Handle("GET /v1/archives/{name}", data("get_archive", s.handleGetArchive))
	mux.Handle("GET /v1/archives/{name}/fields", data("list_fields", s.handleListFields))
	mux.Handle("PUT /v1/archives/{name}/fields/{field}", data("put_field", s.handlePutField))
	mux.Handle("GET /v1/archives/{name}/fields/{field}", data("get_field", s.handleGetField))
	mux.Handle("GET /v1/archives/{name}/fields/{field}/region", data("get_region", s.handleGetRegion))
	mux.Handle("GET /v1/archives/{name}/fields/{field}/info", data("get_info", s.handleGetInfo))

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.WriteTo(w, s.cache, s.lim.QueueDepth())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route with request counting and latency histograms.
// It sits outside admission so shed responses are counted too.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		s.met.Observe(route, sw.code, time.Since(start))
	})
}

// httpErr maps an error to a status and writes it. Catalog misses are
// 404s, validation problems 400s, cancellations the nginx-style 499, and
// everything else a 500.
func httpErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case isNotFound(err):
		code = http.StatusNotFound
	case isBadRequest(err):
		code = http.StatusBadRequest
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		code = 499
	}
	http.Error(w, err.Error(), code)
}

// errNotFound / errBadRequest tag errors with their HTTP class.
type taggedErr struct {
	err  error
	code int
}

func (t taggedErr) Error() string { return t.err.Error() }
func (t taggedErr) Unwrap() error { return t.err }

func notFound(format string, a ...any) error {
	return taggedErr{fmt.Errorf(format, a...), http.StatusNotFound}
}
func badRequest(err error) error {
	return taggedErr{err, http.StatusBadRequest}
}
func isNotFound(err error) bool {
	var t taggedErr
	return errors.As(err, &t) && t.code == http.StatusNotFound
}
func isBadRequest(err error) bool {
	var t taggedErr
	return errors.As(err, &t) && t.code == http.StatusBadRequest
}

// writeJSON answers code with v as indented JSON. The body is encoded
// before anything is written, so a value that does not encode answers 500
// instead of an empty success.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpErr(w, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// jsonNum is a float64 that encodes as JSON null when it is NaN or
// infinite, which encoding/json rejects. Streams leave statistics they do
// not carry as NaN: the target PSNR of abs, ratio and pwrel streams, the
// chunk MSE of pipelines that do not measure it.
type jsonNum float64

func (x jsonNum) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(x))
}

func (s *Server) handleListArchives(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"archives": s.cat.Names()})
}

func (s *Server) handleGetArchive(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := ValidateName(name); err != nil {
		httpErr(w, badRequest(err))
		return
	}
	if s.cat.lookup(name) == nil {
		httpErr(w, notFound("no archive %q", name))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, s.cat.Path(name))
}

func (s *Server) handleListFields(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ar, _, release, err := s.acquire(name)
	if err != nil {
		httpErr(w, err)
		return
	}
	defer release()
	type fieldEntry struct {
		Name      string `json:"name"`
		Dims      []int  `json:"dims"`
		Points    int    `json:"points"`
		Precision string `json:"precision"`
		Codec     string `json:"codec"`
		Mode      string `json:"mode"`
		Chunks    int    `json:"chunks"`
	}
	out := make([]fieldEntry, 0, ar.Len())
	for i := 0; i < ar.Len(); i++ {
		h, err := ar.Info(i)
		if err != nil {
			httpErr(w, err)
			return
		}
		out = append(out, fieldEntry{
			Name: h.Name, Dims: h.Dims, Points: h.NPoints(),
			Precision: h.Precision.String(), Codec: h.Codec.String(),
			Mode: h.Mode.String(), Chunks: len(h.Chunks),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"archive": name, "fields": out})
}

// acquire validates the archive name and pins its current generation.
func (s *Server) acquire(name string) (*fixedpsnr.ArchiveReader, uint64, func(), error) {
	if err := ValidateName(name); err != nil {
		return nil, 0, nil, badRequest(err)
	}
	ar, gen, release, err := s.cat.Acquire(name)
	if err != nil {
		return nil, 0, nil, notFound("%v", err)
	}
	return ar, gen, release, nil
}

// entryIndex resolves a field name inside an acquired archive.
func entryIndex(ar *fixedpsnr.ArchiveReader, fieldName string) (int, error) {
	if err := ValidateName(fieldName); err != nil {
		return 0, badRequest(err)
	}
	i, ok := ar.Index(fieldName)
	if !ok {
		return 0, notFound("no field %q", fieldName)
	}
	return i, nil
}

func (s *Server) handleGetField(w http.ResponseWriter, r *http.Request) {
	ar, _, release, err := s.acquire(r.PathValue("name"))
	if err != nil {
		httpErr(w, err)
		return
	}
	defer release()
	i, err := entryIndex(ar, r.PathValue("field"))
	if err != nil {
		httpErr(w, err)
		return
	}
	h, err := ar.Info(i)
	if err != nil {
		httpErr(w, err)
		return
	}
	f, _, err := ar.ExtractRegionAtContext(r.Context(), i, make([]int, len(h.Dims)), h.Dims)
	if err != nil {
		httpErr(w, err)
		return
	}
	writeField(w, f)
}

func (s *Server) handleGetRegion(w http.ResponseWriter, r *http.Request) {
	ar, gen, release, err := s.acquire(r.PathValue("name"))
	if err != nil {
		httpErr(w, err)
		return
	}
	defer release()
	i, err := entryIndex(ar, r.PathValue("field"))
	if err != nil {
		httpErr(w, err)
		return
	}
	q := r.URL.Query()
	if q.Get("off") == "" || q.Get("ext") == "" {
		httpErr(w, badRequest(errors.New("off and ext query parameters are required (e.g. off=0,0,0&ext=4,96,96)")))
		return
	}
	off, err := ParseIntList(q.Get("off"))
	if err != nil {
		httpErr(w, badRequest(err))
		return
	}
	ext, err := ParseIntList(q.Get("ext"))
	if err != nil {
		httpErr(w, badRequest(err))
		return
	}
	f, err := s.regionRead(r.Context(), ar, gen, i, off, ext)
	if err != nil {
		httpErr(w, err)
		return
	}
	writeField(w, f)
}

// regionRead decodes a region through the library's chunk decoder with
// the chunk cache as its slab source: cached chunks are cropped straight
// from their slabs, and misses decode in parallel, each through the
// singleflight cache. A constant entry has no chunks and never reaches
// the cache.
func (s *Server) regionRead(ctx context.Context, ar *fixedpsnr.ArchiveReader, gen uint64, entry int, off, ext []int) (*fixedpsnr.Field, error) {
	h, err := ar.Info(entry)
	if err != nil {
		return nil, err
	}
	if err := field.ValidateRegion(h.Dims, off, ext); err != nil {
		return nil, badRequest(err)
	}
	return codec.DecompressRegionFrom(ctx, h, func(ci int) ([]byte, error) {
		return ar.ChunkPayload(entry, ci)
	}, off, ext, s.scratch, func(ci int, decode func() ([]float64, error)) ([]float64, error) {
		return s.cache.GetOrDecode(chunkKey{gen: gen, entry: entry, chunk: ci}, decode)
	})
}

// writeField serializes a field as SDF1 onto the response.
func writeField(w http.ResponseWriter, f *fixedpsnr.Field) {
	w.Header().Set("Content-Type", "application/octet-stream")
	var buf bytes.Buffer
	buf.Grow(fieldio.Size(f))
	if err := fieldio.Write(&buf, f); err != nil {
		httpErr(w, err)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// infoChunk mirrors one row of `fpsz inspect -chunks`.
type infoChunk struct {
	Index    int     `json:"index"`
	RowStart int     `json:"row_start"`
	Rows     int     `json:"rows"`
	Offset   int     `json:"offset"`
	Bytes    int     `json:"bytes"`
	EbAbs    jsonNum `json:"eb_abs"`
	MSE      jsonNum `json:"mse"`
	Min      jsonNum `json:"min"`
	Max      jsonNum `json:"max"`
	Group    int     `json:"group,omitempty"`
}

// infoGroup mirrors one region-group row.
type infoGroup struct {
	Index       int     `json:"index"`
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	TargetPSNR  jsonNum `json:"target_psnr_db,omitempty"`
	TargetRatio jsonNum `json:"target_ratio,omitempty"`
	Chunks      int     `json:"chunks"`
	PSNR        jsonNum `json:"psnr_db,omitempty"`
}

func (s *Server) handleGetInfo(w http.ResponseWriter, r *http.Request) {
	ar, _, release, err := s.acquire(r.PathValue("name"))
	if err != nil {
		httpErr(w, err)
		return
	}
	defer release()
	i, err := entryIndex(ar, r.PathValue("field"))
	if err != nil {
		httpErr(w, err)
		return
	}
	h, err := ar.Info(i)
	if err != nil {
		httpErr(w, err)
		return
	}
	chunks := make([]infoChunk, len(h.Chunks))
	for ci, c := range h.Chunks {
		eb := c.EbAbs
		if eb == 0 {
			eb = h.EbAbs
		}
		chunks[ci] = infoChunk{
			Index: ci, RowStart: c.RowStart, Rows: c.Rows, Offset: c.Off,
			Bytes: c.Len, EbAbs: jsonNum(eb), MSE: jsonNum(c.MSE), Min: jsonNum(c.Min), Max: jsonNum(c.Max), Group: c.Group,
		}
	}
	var groups []infoGroup
	for gi, g := range h.Groups {
		gc := h.GroupChunks(gi)
		ig := infoGroup{
			Index: gi, Name: g.Name, Mode: g.Mode.String(),
			TargetPSNR: jsonNum(g.TargetPSNR), TargetRatio: jsonNum(g.TargetRatio), Chunks: len(gc),
		}
		if mse := h.GroupAggregateMSE(gc); mse > 0 {
			ig.PSNR = jsonNum(core.PSNR(mse, h.ValueRange))
		}
		groups = append(groups, ig)
	}
	resp := map[string]any{
		"name":        h.Name,
		"dims":        h.Dims,
		"points":      h.NPoints(),
		"precision":   h.Precision.String(),
		"codec":       h.Codec.String(),
		"mode":        h.Mode.String(),
		"version":     h.Version,
		"eb_abs":      jsonNum(h.EbAbs),
		"target_psnr": jsonNum(h.TargetPSNR),
		"value_range": jsonNum(h.ValueRange),
		"capacity":    h.Capacity,
		"chunks":      chunks,
	}
	if mse := h.AggregateMSE(); mse > 0 {
		resp["aggregate_mse"] = jsonNum(mse)
		resp["aggregate_psnr_db"] = jsonNum(core.PSNR(mse, h.ValueRange))
	}
	if groups != nil {
		resp["groups"] = groups
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePutField(w http.ResponseWriter, r *http.Request) {
	name, fieldName := r.PathValue("name"), r.PathValue("field")
	if err := ValidateName(name); err != nil {
		httpErr(w, badRequest(err))
		return
	}
	if err := ValidateName(fieldName); err != nil {
		httpErr(w, badRequest(err))
		return
	}
	// Size the buffer from the declared length (capped), with MinRead
	// spare so the read that meets the end needs no regrowth. The
	// MaxBytesReader still fails an over-long body, and the transport a
	// short one.
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), s.cfg.MaxUploadBytes, maxBodyPrealloc)) + bytes.MinRead)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)); err != nil {
		httpErr(w, badRequest(fmt.Errorf("reading body: %w", err)))
		return
	}
	f, err := fieldio.Read(bytes.NewReader(body.Bytes()))
	if err != nil {
		httpErr(w, badRequest(fmt.Errorf("body is not an SDF1 field: %w", err)))
		return
	}
	f.Name = fieldName

	opt, err := optionsFromQuery(r)
	if err != nil {
		httpErr(w, badRequest(err))
		return
	}
	enc, err := s.encoder(opt)
	if err != nil {
		httpErr(w, badRequest(err))
		return
	}
	blob, res, err := enc.Encode(r.Context(), f)
	if err != nil {
		httpErr(w, err)
		return
	}
	if err := s.cat.Put(name, fieldName, blob); err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"archive":          name,
		"field":            fieldName,
		"original_bytes":   res.OriginalBytes,
		"compressed_bytes": res.CompressedBytes,
		"ratio":            jsonNum(res.Ratio),
		"bitrate":          jsonNum(res.BitRate),
		"eb_abs":           jsonNum(res.EbAbs),
		"estimated_psnr":   jsonNum(res.EstimatedPSNR),
		"passes":           res.Passes,
		"regions":          len(res.Regions),
	})
}

// maxBodyPrealloc bounds what a PUT allocates on its Content-Length
// alone, before the bytes arrive: a longer body grows the buffer as it
// is read, so a declared length by itself buys at most this much.
const maxBodyPrealloc = 64 << 20

// optionsFromQuery builds compression options from PUT query parameters.
func optionsFromQuery(r *http.Request) (fixedpsnr.Options, error) {
	q := r.URL.Query()
	var opt fixedpsnr.Options
	floatQ := func(key string, def float64) (float64, error) {
		s := q.Get(key)
		if s == "" {
			return def, nil
		}
		return strconv.ParseFloat(s, 64)
	}
	intQ := func(key string) (int, error) {
		s := q.Get(key)
		if s == "" {
			return 0, nil
		}
		return strconv.Atoi(s)
	}
	psnr, err := floatQ("psnr", 80)
	if err != nil {
		return opt, fmt.Errorf("psnr: %w", err)
	}
	ratio, err := floatQ("ratio", 0)
	if err != nil {
		return opt, fmt.Errorf("ratio: %w", err)
	}
	eb, err := floatQ("eb", 0)
	if err != nil {
		return opt, fmt.Errorf("eb: %w", err)
	}
	mode := q.Get("mode")
	if mode == "" {
		if ratio > 0 {
			mode = fixedpsnr.ModeRatio.String()
		} else {
			mode = fixedpsnr.ModePSNR.String()
		}
	}
	if err := SetMode(&opt, mode, eb, psnr, ratio); err != nil {
		return opt, err
	}
	if opt.Compressor, err = ParseCompressor(cmp.Or(q.Get("compressor"), fixedpsnr.CompressorSZ.String())); err != nil {
		return opt, err
	}
	if opt.ChunkPoints, err = intQ("chunkpoints"); err != nil {
		return opt, fmt.Errorf("chunkpoints: %w", err)
	}
	for _, spec := range q["roi"] {
		rt, err := ParseROISpec(spec)
		if err != nil {
			return opt, err
		}
		opt.RegionTargets = append(opt.RegionTargets, rt)
	}
	return opt, nil
}

// maxEncoders caps the per-configuration encoder map: every distinct PUT
// query string makes a configuration, so without a cap a client varying
// one parameter would grow the daemon without limit.
const maxEncoders = 64

// encoder returns the session encoder for one compression configuration,
// creating it on first use. Sharing encoders across requests shares
// their scratch pools and per-field solver warm starts, so repeated
// snapshot uploads of the same variable converge in 1–2 passes. A new
// configuration arriving at a full map evicts an arbitrary one; a PUT
// still holding the evicted encoder finishes with it.
func (s *Server) encoder(opt fixedpsnr.Options) (*fixedpsnr.Encoder, error) {
	key := fmt.Sprintf("%+v", opt)
	s.encMu.Lock()
	defer s.encMu.Unlock()
	if enc, ok := s.encs[key]; ok {
		return enc, nil
	}
	enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(opt))
	if err != nil {
		return nil, err
	}
	if len(s.encs) >= maxEncoders {
		for k := range s.encs {
			delete(s.encs, k)
			break
		}
	}
	s.encs[key] = enc
	return enc, nil
}
